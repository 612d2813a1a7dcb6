package service

// journal.go is the service side of the verdict provenance journal: every
// running job carries a journal.Recorder through its context, and when the
// job finishes the journal is encoded as JSONL, content-addressed, and
// persisted in the journal store — so "why did this job conclude that?"
// stays answerable after the run without retaining a live Recorder per job
// forever. The events endpoint (http.go) serves both forms transparently.

import (
	"octopocs/internal/journal"
)

// newJournal returns the recorder a job will carry, or nil when journaling
// is disabled.
func (s *Service) newJournal(id string) *journal.Recorder {
	if s.cfg.JournalCapacity < 0 {
		return nil
	}
	vrb := journal.VerbSummary
	if s.cfg.JournalVerbose {
		vrb = journal.VerbVerbose
	}
	return journal.New(id, journal.Options{Capacity: s.cfg.JournalCapacity, Verbosity: vrb})
}

// persistJournal closes a finished job's recorder and moves its events to
// the journal store as a content-addressed JSONL artifact, recording the
// key and counts on the job. Nil-tolerant: jobs that never ran (cancelled
// while queued) or ran with journaling disabled have nothing to persist.
func (s *Service) persistJournal(j *Job, rec *journal.Recorder) {
	if rec == nil {
		return
	}
	rec.Close()
	events := rec.Events()
	data, err := journal.MarshalJSONL(events)
	if err != nil {
		// Attrs are engine-built from strings and numbers, so this cannot
		// happen outside a programming error; keep the job usable anyway.
		s.log.Error("encode job journal", "job", j.id, "err", err.Error())
		return
	}
	key := journal.Key(data)
	if jr := s.stores.cache(journal.KeyClass); jr != nil {
		jr.Put(key, data)
	}
	// Record the key and only then detach the live recorder, all under the
	// job lock: a concurrent reader always resolves either the (closed)
	// live recorder or the persisted artifact, never neither.
	j.mu.Lock()
	j.journalKey = key
	j.journalLen = len(events)
	j.journalDropped = rec.Dropped()
	j.journal = nil
	j.mu.Unlock()
}

// jobJournal resolves a job's journal: the live recorder while the job
// runs (rec non-nil, poll with rec.Updated), else the events decoded from
// the persisted artifact. ok is false when journaling is disabled, the job
// never ran, or the artifact was evicted from the store.
func (s *Service) jobJournal(j *Job) (rec *journal.Recorder, events []journal.Event, ok bool) {
	j.mu.Lock()
	rec = j.journal
	key := j.journalKey
	j.mu.Unlock()
	if rec != nil {
		return rec, nil, true
	}
	jr := s.stores.cache(journal.KeyClass)
	if key == "" || jr == nil {
		return nil, nil, false
	}
	v, hit := jr.Get(key)
	if !hit {
		return nil, nil, false
	}
	data, isBytes := v.([]byte)
	if !isBytes {
		return nil, nil, false
	}
	events, err := journal.DecodeJSONL(data)
	if err != nil {
		s.log.Error("decode job journal", "job", j.id, "err", err.Error())
		return nil, nil, false
	}
	return nil, events, true
}

// JournalEvents returns the retained journal events of a job with
// Seq > after (0 returns all), live or persisted. ok is false when the job
// is unknown or no journal is available.
func (s *Service) JournalEvents(id string, after uint64) (events []journal.Event, ok bool) {
	j, found := s.Job(id)
	if !found {
		return nil, false
	}
	rec, events, ok := s.jobJournal(j)
	if !ok {
		return nil, false
	}
	if rec != nil {
		return rec.EventsAfter(after), true
	}
	return eventsAfter(events, after), true
}
