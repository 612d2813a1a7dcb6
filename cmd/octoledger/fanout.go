package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"octopocs/internal/artifact"
	"octopocs/internal/asm"
	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/service"
	"octopocs/internal/telemetry"
)

// Service-fanout sizing. Two workers and two client connections keep the
// workload within two cores. At the open-loop rate of 250 requests/s and
// about 1.5 ms a request, the two connections are busy a fifth of the time,
// so the open loop measures latency rather than a growing backlog.
const (
	fanoutRows    = 17
	fanoutWorkers = 2
	fanoutConns   = 2
	fanoutRate    = 250.0
	// fanoutSetups is how many times a run brings up a warm service;
	// setup_s is the median.
	fanoutSetups = 5
	// fanoutRounds is how many times the open and the closed loop take
	// turns in the measured window.
	fanoutRounds = 5
)

// fanoutRow is one corpus row submitted as inline MIR text, the way a clone
// scanner hands the service a pair it built itself.
type fanoutRow struct {
	idx  int
	pair *core.Pair
	body []byte
}

func fanoutInputs() ([]fanoutRow, truthTable, error) {
	var specs []*corpus.PairSpec
	for idx := 1; idx <= fanoutRows; idx++ {
		spec := corpus.ByIdx(idx)
		if spec == nil {
			return nil, nil, fmt.Errorf("corpus row %d missing", idx)
		}
		specs = append(specs, spec)
	}
	rows := make([]fanoutRow, len(specs))
	for i, spec := range specs {
		p := spec.Pair
		lib := make([]string, 0, len(p.Lib))
		for fn := range p.Lib {
			lib = append(lib, fn)
		}
		sort.Strings(lib)
		body, err := json.Marshal(service.SubmitRequest{
			Name: p.Name, S: asm.Format(p.S), T: asm.Format(p.T), PoC: p.PoC, Lib: lib,
			CtxArgs: p.CtxArgs, InputSize: p.InputSize, MaxSteps: p.MaxSteps,
		})
		if err != nil {
			return nil, nil, err
		}
		rows[i] = fanoutRow{idx: spec.Idx, pair: p, body: body}
	}
	return rows, groundTruth(specs, false), nil
}

// server is one octoserved lifetime: the persistent store bundle, the
// service, and its HTTP API on a loopback listener.
type server struct {
	stores *service.Stores
	svc    *service.Service
	http   *httptest.Server
	client *http.Client
}

// openServer starts octoserved the way `octoserved -workers 2 -store-dir
// dir` does, and returns how long opening the stores took: the integrity
// scan of everything already persisted under dir.
func openServer(dir string) (*server, time.Duration, error) {
	t0 := time.Now()
	st, err := service.OpenStores(service.StoreOptions{Dir: dir})
	scan := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	svc := service.New(service.Config{Workers: fanoutWorkers, Stores: st})
	return &server{
		stores: st,
		svc:    svc,
		http:   httptest.NewServer(svc.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: fanoutConns, MaxIdleConnsPerHost: fanoutConns}},
	}, scan, nil
}

// close stops the listener, drains the service and closes the stores, in
// the order a process exit would.
func (s *server) close() error {
	s.client.CloseIdleConnections()
	s.http.Close()
	err := s.svc.Shutdown(context.Background())
	if cerr := s.stores.Close(); err == nil {
		err = cerr
	}
	return err
}

// submitted is one answered POST /v1/jobs?wait=1.
type submitted struct {
	row    int
	status service.JobStatus
	code   int
	err    error
	rtt    time.Duration
}

func (s *server) submit(row fanoutRow) submitted {
	t0 := time.Now()
	res := submitted{row: row.idx}
	resp, err := s.client.Post(s.http.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(row.body))
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	res.code = resp.StatusCode
	res.err = json.NewDecoder(resp.Body).Decode(&res.status)
	res.rtt = time.Since(t0)
	return res
}

func (s *server) get(path string, v any) error {
	resp, err := s.client.Get(s.http.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if b, ok := v.(*[]byte); ok {
		*b, err = io.ReadAll(resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// check counts every answer, comparing its verdict with the table and
// replaying each triggering poc' fetched from the service. Identical poc'
// bytes of one row are replayed once.
func (s *server) check(out *outcome, truth truthTable, rows []fanoutRow, results []submitted) {
	replayed := make(map[string]string)
	for _, r := range results {
		msg := verdictMsg(truth, r)
		if msg == "" && truth[r.row].triggers() {
			var poc []byte
			if err := s.get("/v1/jobs/"+r.status.ID+"/poc", &poc); err != nil {
				msg = fmt.Sprintf("row %d: fetch poc': %v", r.row, err)
			} else {
				key := fmt.Sprintf("%d/%x", r.row, poc)
				res, ok := replayed[key]
				if !ok {
					res = replay(r.row, rows[r.row-1].pair, poc)
					replayed[key] = res
				}
				msg = res
			}
		}
		out.check(msg)
	}
}

// verdictMsg checks one answer's transport status and verdict.
func verdictMsg(truth truthTable, r submitted) string {
	switch {
	case r.err != nil:
		return fmt.Sprintf("row %d: %v", r.row, r.err)
	case r.code != http.StatusOK:
		return fmt.Sprintf("row %d: HTTP %d", r.row, r.code)
	case r.status.State != "done":
		return fmt.Sprintf("row %d: job %s %s %s", r.row, r.status.ID, r.status.State, r.status.Error)
	}
	return truth.check(r.row, r.status.Verdict, r.status.Type, r.status.PoCBytes)
}

// fanoutSetup brings up a warm service: a cold service populates a fresh
// store with every row, shuts down, and the store is reopened by a new
// service (a warm restart). It returns the warm server and how long the
// reopen's integrity scan took.
func fanoutSetup(dir string, rows []fanoutRow, truth truthTable, out *outcome) (*server, time.Duration, error) {
	cold, _, err := openServer(dir)
	if err != nil {
		return nil, 0, err
	}
	cold.check(out, truth, rows, closedLoop(cold, rows, identity(len(rows)), nil))
	if err := cold.close(); err != nil {
		return nil, 0, err
	}
	return openServer(dir)
}

func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// closedLoop submits rows[order...] over fanoutConns connections, each
// sending its next request when the previous one is answered. With a
// recorder, every request gets a span with the job's own trace grafted
// beneath it.
func closedLoop(s *server, rows []fanoutRow, order []int, rec *recorder) []submitted {
	res := make([]submitted, len(order))
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < fanoutConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				tid := rec.newTrace()
				sp := rec.begin(tid, -1, "http.submit")
				res[k] = s.submit(rows[order[k]])
				rec.end(sp)
				if rec != nil && res[k].err == nil {
					var snap telemetry.TraceSnapshot
					if err := s.get("/v1/jobs/"+res[k].status.ID+"/trace", &snap); err == nil {
						rec.graft(tid, sp, snap)
					}
				}
			}
		}()
	}
	for k := range order {
		next <- k
	}
	close(next)
	wg.Wait()
	return res
}

// arrival is one open-loop request: when it is due and which row it sends.
type arrival struct {
	at  time.Duration
	row int
}

// poissonArrivals draws exponential inter-arrival gaps at fanoutRate over
// the window, each request a uniformly drawn row.
func poissonArrivals(rng *rand.Rand, window time.Duration) []arrival {
	var out []arrival
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / fanoutRate * float64(time.Second))
		if at >= window {
			return out
		}
		out = append(out, arrival{at: at, row: rng.Intn(fanoutRows)})
	}
}

// openLoop sends each arrival when it is due on the first free connection.
// Latency runs from the due time, so a stall also charges the requests
// queued behind it; late is how far behind schedule each send started.
func openLoop(s *server, rows []fanoutRow, arrivals []arrival) (res []submitted, latency, late []time.Duration) {
	res = make([]submitted, len(arrivals))
	latency = make([]time.Duration, len(arrivals))
	late = make([]time.Duration, len(arrivals))
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < fanoutConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				due := start.Add(arrivals[k].at)
				time.Sleep(time.Until(due))
				late[k] = time.Since(due)
				res[k] = s.submit(rows[arrivals[k].row])
				latency[k] = time.Since(due)
			}
		}()
	}
	for k := range arrivals {
		next <- k
	}
	close(next)
	wg.Wait()
	return res, latency, late
}

func runServiceFanout(o *options) (*outcome, error) {
	out := newOutcome()
	base, err := os.MkdirTemp("", "octoledger-store-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	var rows []fanoutRow
	var truth truthTable
	var srv *server
	var openTimes []time.Duration
	rep := 0
	out.Setup, err = measureSetup(o, fanoutSetups, func() error {
		var err error
		if rows, truth, err = fanoutInputs(); err != nil {
			return err
		}
		if o.truth != nil {
			truth = o.truth
		}
		rep++
		var open time.Duration
		srv, open, err = fanoutSetup(fmt.Sprintf("%s/rep%d", base, rep), rows, truth, out)
		openTimes = append(openTimes, open)
		return err
	}, func() error {
		err := srv.close()
		srv = nil
		return err
	})
	if err != nil {
		if srv != nil {
			srv.close()
		}
		return nil, err
	}
	defer srv.close()

	window := o.seconds / 2
	if o.short {
		window = time.Second
	}
	// The closed loop runs a fixed number of passes, not a fixed time: the
	// service keeps every finished job, so a time-bounded loop would make
	// the retained heap, and with it GC work and peak RSS, grow with
	// throughput.
	closedPasses := int(2*fanoutRate*window.Seconds())/fanoutRows + 1
	out.PerPass = len(rows)
	order := newPassOrder(o.seed, "service-fanout")
	var before, after service.Stats
	var countersBefore, countersAfter []byte
	if err := srv.get("/v1/stats", &before); err != nil {
		return nil, err
	}
	if err := srv.get("/metrics", &countersBefore); err != nil {
		return nil, err
	}

	// The open and the closed loop alternate in rounds, so the samples of
	// each spread over the whole run instead of sitting in one half of it,
	// where a few seconds of a slowed host would decide them.
	rounds := fanoutRounds
	if o.short {
		rounds = 1
	}
	var openRes, closed, traced []submitted
	var late []time.Duration
	for r := 0; r < rounds; r++ {
		// Open loop: Poisson arrivals, latency from the due time. It
		// supplies the latency metrics, per row and overall.
		out.collect()
		arrivals := poissonArrivals(order.rng, window/time.Duration(rounds))
		res, latency, lateRound := openLoop(srv, rows, arrivals)
		openRes = append(openRes, res...)
		late = append(late, lateRound...)
		out.latency = append(out.latency, latency...)
		for k, a := range arrivals {
			kind := fmt.Sprintf("%02d", rows[a.row].idx)
			out.Jobs[kind] = append(out.Jobs[kind], latency[k])
		}

		// Closed loop: passes of all rows in seeded order, two
		// connections. It supplies throughput.
		out.collect()
		err = passLoop(o, out, func(n int, _ time.Duration) bool { return n >= closedPasses/rounds }, func(tr bool) (time.Duration, error) {
			var rec *recorder
			if tr {
				rec = o.rec
			}
			t0 := time.Now()
			res := closedLoop(srv, rows, order.next(len(rows)), rec)
			d := time.Since(t0)
			if tr {
				traced = append(traced, res...)
				return d, nil
			}
			closed = append(closed, res...)
			return d, nil
		})
		if err != nil {
			return nil, err
		}
	}
	if err := srv.get("/v1/stats", &after); err != nil {
		return nil, err
	}
	if err := srv.get("/metrics", &countersAfter); err != nil {
		return nil, err
	}

	srv.check(out, truth, rows, append(append(openRes, closed...), traced...))

	if o.trace {
		fanoutLayers(out, closed, late, openTimes, before, after)
		engineCounters(out, parseExposition(bytes.NewReader(countersBefore)),
			parseExposition(bytes.NewReader(countersAfter)), len(openRes)+len(closed)+len(traced))
	}
	return out, nil
}

// fanoutLayers derives the service-side per-layer metrics of a traced run.
func fanoutLayers(out *outcome, closed []submitted, late, openTimes []time.Duration, before, after service.Stats) {
	var overhead, jobMS, events []float64
	for _, r := range closed {
		overhead = append(overhead, ms(r.rtt)-r.status.ElapsedMS)
		jobMS = append(jobMS, r.status.ElapsedMS)
		events = append(events, float64(r.status.JournalEvents))
	}
	out.layers["service.overhead_ms"] = median(overhead)
	out.layers["service.job_ms_p50"] = quantile(jobMS, 0.50)
	out.layers["service.job_ms_p99"] = quantile(jobMS, 0.99)
	out.layers["journal.events_per_job"] = median(events)
	out.layers["gen.late_p99_ms"] = quantile(msAll(late), 0.99)
	out.layers["artifact.open_ms"] = median(msAll(openTimes))
	ratio := func(b, a *service.CacheCounters) float64 {
		if b == nil || a == nil {
			return 0
		}
		hits, misses := a.Hits-b.Hits, a.Misses-b.Misses
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	out.layers["service.p1_hit_ratio"] = ratio(before.P1Cache, after.P1Cache)
	out.layers["service.p2_hit_ratio"] = ratio(before.P2Cache, after.P2Cache)
	for _, phase := range []string{"p1", "p2_prep", "reform", "p4"} {
		out.layers["service.stats_"+phase+"_avg_ms"] = after.PhaseLatency[phase].AvgMS
	}
	var delta artifact.Counters
	for class, a := range after.Stores {
		b := before.Stores[class]
		delta.HotHits += a.HotHits - b.HotHits
		delta.DiskHits += a.DiskHits - b.DiskHits
		delta.Writes += a.Writes - b.Writes
	}
	out.layers["artifact.hot_hits"] = float64(delta.HotHits)
	out.layers["artifact.disk_hits"] = float64(delta.DiskHits)
	out.layers["artifact.writes"] = float64(delta.Writes)
	for i := 1; i <= fanoutRows; i++ {
		kind := fmt.Sprintf("%02d", i)
		out.layers["pair."+kind+".ms"] = median(msAll(out.Jobs[kind]))
	}
}
