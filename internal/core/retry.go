package core

// retry.go is the transient-fault recovery of the pipeline: every phase
// runs in a bounded retry loop with capped exponential backoff (see
// Pipeline.phase). Only P1, P2 preparation and the P2+P3 reform run can
// return a transient error; the static layer's injected fault is
// degradable, which is never retried. A retry is sound because every phase
// is pure recomputation of its inputs and error paths never populate the
// artifact or sat caches — re-running a failed phase reproduces exactly
// the result the fault-free run would have produced.

import (
	"context"
	"time"

	"octopocs/internal/faultinject"
	"octopocs/internal/journal"
	"octopocs/internal/telemetry"
)

// Retry defaults.
const (
	// DefaultRetryMax is the number of retries (attempts beyond the first)
	// per phase for transient faults.
	DefaultRetryMax = 3
	// DefaultRetryBaseDelay is the backoff before the first retry.
	DefaultRetryBaseDelay = 2 * time.Millisecond
	// retryMaxDelay caps the exponential backoff.
	retryMaxDelay = 250 * time.Millisecond
)

// RetryPolicy bounds the per-phase retry loop for faults classified
// transient. The zero value uses the defaults; Max < 0 disables retries.
type RetryPolicy struct {
	// Max is the retries per phase; DefaultRetryMax when 0, none when
	// negative.
	Max int
	// BaseDelay is the first backoff; doubled per retry up to an internal
	// cap, with deterministic jitter. DefaultRetryBaseDelay when 0.
	BaseDelay time.Duration
}

func (r RetryPolicy) max() int {
	switch {
	case r.Max > 0:
		return r.Max
	case r.Max < 0:
		return 0
	}
	return DefaultRetryMax
}

func (r RetryPolicy) base() time.Duration {
	if r.BaseDelay > 0 {
		return r.BaseDelay
	}
	return DefaultRetryBaseDelay
}

// retryTransient runs fn, retrying when it returns an error carrying a
// transient injected fault (including a recovered worker panic). Any other
// error — and a transient one that survives every retry — is returned as
// is, so exhausted retries surface as an explicit retryable error, never a
// silently different verdict.
func (p *Pipeline) retryTransient(ctx context.Context, phase string, fn func() error) error {
	maxRetries := p.cfg.Retry.max()
	base := p.cfg.Retry.base()
	for attempt := 0; ; attempt++ {
		err := fn()
		if err == nil || attempt >= maxRetries || !faultinject.IsTransient(err) {
			return err
		}
		if ctx.Err() != nil {
			return ctxErr(ctx)
		}
		p.cfg.Faults.CountRetried()
		delay := backoffDelay(base, attempt, phase)
		if rec := journal.FromContext(ctx); rec != nil {
			attrs := journal.Attrs{"phase": phase}
			if point, class, ok := faultinject.Describe(err); ok {
				attrs["point"] = string(point)
				attrs["class"] = int(class)
			}
			rec.Emit(journal.EvFaultTransient, attrs)
			rec.Emit(journal.EvFaultRetry, journal.Attrs{"phase": phase, "attempt": attempt + 1})
		}
		telemetry.Logger(ctx).Warn("transient fault; retrying phase",
			"phase", phase, "attempt", attempt+1, "delay", delay.String(), "err", err.Error())
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctxErr(ctx)
		}
	}
}

// backoffDelay is capped exponential backoff with deterministic jitter in
// [d/2, d]: the jitter decorrelates concurrent jobs retrying the same
// shared resource without consulting the global RNG, keeping runs
// reproducible.
func backoffDelay(base time.Duration, attempt int, phase string) time.Duration {
	d := base << uint(attempt)
	if d <= 0 || d > retryMaxDelay {
		d = retryMaxDelay
	}
	h := uint64(1469598103934665603)
	for i := 0; i < len(phase); i++ {
		h ^= uint64(phase[i])
		h *= 1099511628211
	}
	h ^= uint64(attempt + 1)
	h *= 1099511628211
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + int64(h%uint64(half+1)))
}
