package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Committed inputs and references of the served-jobs workload.
const (
	scenarioDir       = "testdata/scenarios"
	scenarioReference = "BENCH_scenarios.json"
)

// genPerRound is how many fresh generated jobs each round adds.
const genPerRound = 8

// genShape narrows the generator's calibrated envelope to mid-sized
// loop programs, so the job mix, and with it every served-jobs figure,
// varies little from seed to seed; the committed documents supply the
// variety.
const genShape = "phases=3-4,gran=1500-3000,pages=32-64,gm=0.1-0.2"

// servedJobs is an in-process serve.Server (httptest listener,
// resultcache in a scratch directory, Workers = nproc) driven by a
// closed loop of nproc clients. Simulations are short, so HTTP, the
// queue, verified cache reads beside cache writes, scenario parsing,
// resolution and per-job metric snapshots become visible; cache hits
// skip simulation entirely.
//
// Jobs come in rounds (see schedule). Round 0 adds the committed
// scenario documents and genPerRound generated documents, every later
// round genPerRound fresh generated documents; each job is submitted
// once fresh and twice more two rounds later, so about two thirds of
// submissions are cache hits.
type servedJobs struct {
	seed    int64
	scratch string
	docs    []job                        // committed scenario documents
	refs    map[string][]scenario.Record // committed records by scenario name
	clients int

	srv     *serve.Server
	hs      *httptest.Server
	c       *client
	servers int // servers started; each gets a fresh cache
	windows int // measured windows so far

	mu     sync.Mutex
	missed map[string]*miss  // by job key, until both repeats ran
	events map[string]uint64 // kernel events by job key
	waits  []time.Duration   // queue wait of each miss
	execs  []time.Duration   // execution time of each miss
	stats  map[string]float64
}

// miss is a first submission's result, kept for its repeats.
type miss struct {
	payload []byte
	repeats int // repeats still to come
}

// job is one distinct submission.
type job struct {
	key    string // the scenario name, unique per distinct job
	doc    string
	repeat bool // submitted before: must be a cache hit
}

func newServedJobs(seed int64, scratch string) workload {
	return &servedJobs{seed: seed, scratch: scratch, clients: runtime.NumCPU()}
}

func (s *servedJobs) workers() int { return s.clients }

func (s *servedJobs) setup(tr *tracer) error {
	files, err := filepath.Glob(filepath.Join(scenarioDir, "*"+scenario.Ext))
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no scenario documents in %s", scenarioDir)
	}
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var sc *scenario.Scenario
		tr.do("scenario.parse", func() { sc, err = scenario.Parse("bench", data) })
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		s.docs = append(s.docs, job{key: sc.Name, doc: string(data)})
	}
	recs, err := scenario.LoadCapture(scenarioReference)
	if err != nil {
		return err
	}
	s.refs = map[string][]scenario.Record{}
	for _, r := range recs {
		s.refs[r.Scenario] = append(s.refs[r.Scenario], r)
	}
	if err := s.start(); err != nil {
		return err
	}
	// The warm-up job is the first committed document under another
	// name: the same at every seed, so set-up time does not depend on
	// the generated jobs, and a miss, so it warms the whole job path.
	first := s.docs[0]
	warm := job{key: "warm-up", doc: strings.Replace(first.doc, "name: "+first.key+"\n", "name: warm-up\n", 1)}
	if warm.doc == first.doc {
		return fmt.Errorf("scenario %s has no name line to rename for the warm-up job", first.key)
	}
	if smp := s.do(warm, nil); smp.err != nil {
		return fmt.Errorf("warm-up job: %w", smp.err)
	}
	return nil
}

// start brings up a server with a fresh result cache.
func (s *servedJobs) start() error {
	s.close()
	s.servers++
	srv, err := serve.New(serve.Config{
		Workers:  s.clients,
		CacheDir: filepath.Join(s.scratch, fmt.Sprintf("cache-%d", s.servers)),
	})
	if err != nil {
		return err
	}
	srv.Start()
	s.srv, s.hs = srv, httptest.NewServer(srv.Handler())
	s.c = newClient(s.hs.URL, s.clients)
	s.missed, s.events = map[string]*miss{}, map[string]uint64{}
	return nil
}

func (s *servedJobs) close() {
	if s.srv == nil {
		return
	}
	s.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Drain(ctx) // the queue is empty: nothing to persist or cancel
	s.c.close()
	s.srv = nil
}

// genJob is generated document j of round r: a gen: workload on a
// paper multiprocessor configuration, both drawn from the seed.
func genJob(seed int64, r, j int, tr *tracer) (job, error) {
	rng := rand.New(rand.NewSource(splitmix(seed, uint64(r)<<16|uint64(j))))
	cfgs := []arch.Config{arch.Cedar8, arch.Cedar16}
	cfg := cfgs[rng.Intn(len(cfgs))]
	name := fmt.Sprintf("gen-r%d-j%d", r, j)
	var b strings.Builder
	fmt.Fprintf(&b, "name: %s\napp: gen:seed=%d,%s\nconfig: %s\nsteps: 2\n", name, 1+rng.Int63n(1<<31), genShape, cfg.Name)
	if k := kernelSeed(seed, uint64(rng.Int63())); k != 0 {
		fmt.Fprintf(&b, "seed: %d\n", k)
	}
	b.WriteString("metrics:\n  - ct_cycles\n  - os_breakdown\n  - events\n")
	var err error
	tr.do("scenario.parse", func() { _, err = scenario.Parse("bench", []byte(b.String())) })
	return job{key: name, doc: b.String()}, err
}

// roundJobs returns the fresh jobs of round r.
func (s *servedJobs) roundJobs(r int, tr *tracer) ([]job, error) {
	var fresh []job
	if r == 0 {
		fresh = append(fresh, s.docs...)
	}
	for j := 0; j < genPerRound; j++ {
		g, err := genJob(s.seed, r, j, tr)
		if err != nil {
			return nil, err
		}
		fresh = append(fresh, g)
	}
	return fresh, nil
}

func (s *servedJobs) measure(until time.Time, tr *tracer) []sample {
	if s.windows++; s.windows > 1 {
		// A later window replays the same jobs, so it needs a cold
		// cache: restart the server (untimed, not part of set-up).
		if err := s.start(); err != nil {
			return []sample{{err: err}}
		}
	}
	s.waits, s.execs = nil, nil
	q := &schedule{s: s, tr: tr, done: map[string]chan struct{}{}}
	out := drive(s.clients, until, math.MaxInt, func(i int) sample {
		j, done, err := q.at(i)
		if err != nil {
			return sample{err: err}
		}
		if !j.repeat {
			defer close(done)
		} else {
			<-done
		}
		return s.do(j, tr)
	})
	s.stats = s.c.serverStats()
	return out
}

// schedule is the served-jobs op sequence, built a round at a time as
// the closed loop reaches it. Round r holds the fresh jobs of round r
// and two repeats of each fresh job of round r-2, shuffled. A repeat
// that finds its miss still running waits for it, so every first
// submission is a miss and every repeat a hit, with no barrier between
// rounds.
type schedule struct {
	s      *servedJobs
	tr     *tracer
	mu     sync.Mutex
	ops    []job
	rounds [][]job
	done   map[string]chan struct{} // closed when the job's miss finished
	err    error
}

// at returns op i and the channel its miss closes.
func (q *schedule) at(i int) (job, chan struct{}, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.err == nil && i >= len(q.ops) {
		r := len(q.rounds)
		fresh, err := q.s.roundJobs(r, q.tr)
		if err != nil {
			q.err = err
			break
		}
		q.rounds = append(q.rounds, fresh)
		list := append([]job(nil), fresh...)
		for _, j := range fresh {
			q.done[j.key] = make(chan struct{})
		}
		if r >= 2 {
			for _, j := range q.rounds[r-2] {
				j.repeat = true
				list = append(list, j, j)
			}
		}
		rng := rand.New(rand.NewSource(splitmix(q.s.seed, 1<<40|uint64(r))))
		rng.Shuffle(len(list), func(a, b int) { list[a], list[b] = list[b], list[a] })
		q.ops = append(q.ops, list...)
	}
	if q.err != nil {
		return job{}, nil, q.err
	}
	j := q.ops[i]
	return j, q.done[j.key], nil
}

// do submits one job, waits for it, fetches the result and checks it.
func (s *servedJobs) do(j job, tr *tracer) sample {
	smp := sample{key: j.key}
	start := time.Now()
	res, err := s.c.run(serve.JobSpec{Type: serve.TypeBench, Bench: j.doc}, tr)
	smp.latency = time.Since(start)
	if err != nil {
		smp.err = fmt.Errorf("job %s: %w", j.key, err)
		return smp
	}
	smp.hit = res.hit
	smp.err = s.check(j, res, &smp)
	return smp
}

// check verifies a served result: a repeat is a cache hit byte-equal to
// its miss; a miss parses as a capture whose records match the
// committed ones for committed documents.
func (s *servedJobs) check(j job, res jobResult, smp *sample) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.repeat {
		if !res.hit {
			return fmt.Errorf("%w: repeat of %s was not a cache hit", errWrongOutput, j.key)
		}
		m := s.missed[j.key]
		if m == nil || !bytes.Equal(res.payload, m.payload) {
			return fmt.Errorf("%w: cache hit for %s differs from its miss", errWrongOutput, j.key)
		}
		if m.repeats--; m.repeats == 0 {
			delete(s.missed, j.key)
		}
		return nil
	}
	if res.hit {
		return fmt.Errorf("%w: first submission of %s was a cache hit", errWrongOutput, j.key)
	}
	// Kept whatever the checks below find: its repeats are checked
	// against it on their own.
	s.missed[j.key] = &miss{payload: res.payload, repeats: 2}
	recs, err := scenario.ReadCapture(bytes.NewReader(res.payload))
	if err != nil {
		return fmt.Errorf("%w: %s: %v", errWrongOutput, j.key, err)
	}
	if want, ok := s.refs[j.key]; ok && !equalRecords(recs, want) {
		return fmt.Errorf("%w: %s records differ from %s", errWrongOutput, j.key, scenarioReference)
	}
	var events uint64
	for _, r := range recs {
		if r.Metric == scenario.MetricEvents {
			events += uint64(r.Value)
		}
	}
	if events == 0 {
		return fmt.Errorf("%w: %s reports no kernel events", errWrongOutput, j.key)
	}
	s.events[j.key] = events
	s.waits = append(s.waits, res.started.Sub(res.submitted))
	s.execs = append(s.execs, res.finished.Sub(res.started))
	smp.sims, smp.events = 1, events
	smp.counts = &work{Events: events}
	return nil
}

func equalRecords(a, b []scenario.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// report adds the service's figures from the last window and, for a
// traced run, the exact simulated work of round 0 counted in-process.
func (s *servedJobs) report(r *result) {
	sec := func(ds []time.Duration) float64 {
		var v []float64
		for _, d := range ds {
			v = append(v, d.Seconds())
		}
		return median(v)
	}
	r.set("serve.queue_wait_s", sec(s.waits))
	r.set("serve.execute_s", sec(s.execs))
	r.set("serve.rejected", float64(s.c.refused()))
	for k, v := range s.stats {
		r.set(k, v)
	}
	if r.traced.samples == nil {
		return
	}
	w, err := s.roundZeroWork()
	if err != nil {
		r.checkErr = err
		return
	}
	r.work = w
}

// roundZeroWork re-runs round 0's jobs through the facade to count
// their simulated work, and checks each run's kernel events against
// what the server reported for the same job. A job that failed when
// served is left out.
func (s *servedJobs) roundZeroWork() (work, error) {
	jobs, err := s.roundJobs(0, nil)
	if err != nil {
		return work{}, err
	}
	type out struct {
		w   work
		err error
	}
	runs := engine.Map(s.clients, jobs, func(_ int, j job) out {
		sc, err := scenario.Parse("bench", []byte(j.doc))
		if err != nil {
			return out{err: err}
		}
		app, cfg, err := sc.Resolve()
		if err != nil {
			return out{err: err}
		}
		run, err := cedar.SimulateRunErr(app, cfg, cedar.Options{Steps: sc.Steps, Seed: sc.Seed,
			Faults: sc.Plan, MaxCycles: sim.Time(sc.MaxCycles), Parallel: sc.Parallel})
		if err != nil {
			return out{err: fmt.Errorf("%s: %w", j.key, err)}
		}
		return out{w: runWork(run)}
	})
	var total work
	for i, o := range runs {
		if o.err != nil {
			if _, served := s.events[jobs[i].key]; served {
				return work{}, fmt.Errorf("%w: %s ran when served but fails in-process: %v",
					errWrongOutput, jobs[i].key, o.err)
			}
			continue // the served job failed too: counted as a failed op
		}
		if served, ok := s.events[jobs[i].key]; ok && served != o.w.Events {
			return work{}, fmt.Errorf("%w: %s: served %d kernel events, in-process run %d",
				errWrongOutput, jobs[i].key, served, o.w.Events)
		}
		total.add(o.w)
	}
	return total, nil
}

// errRefused marks a submission the server turned away (429 or 503).
var errRefused = errors.New("refused")

// jobResult is one finished job as the client saw it.
type jobResult struct {
	payload                      []byte
	hit                          bool
	submitted, started, finished time.Time
}

// client is the closed loop's HTTP side: at most conns connections.
type client struct {
	base string
	http *http.Client

	mu      sync.Mutex
	refusal int
}

func newClient(base string, conns int) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
	}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) refused() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.refusal
}

// run submits spec, waits for the job to finish and fetches its result.
// A refusal, a failed job or any HTTP error is an error.
func (c *client) run(spec serve.JobSpec, tr *tracer) (jobResult, error) {
	var res jobResult
	body, err := json.Marshal(spec)
	if err != nil {
		return res, err
	}
	var sub struct {
		ID       string `json:"id"`
		State    string `json:"state"`
		CacheHit bool   `json:"cache_hit"`
	}
	var status int
	tr.do("serve.submit", func() {
		status, err = c.call(http.MethodPost, "/jobs", body, &sub)
	})
	switch {
	case err != nil:
		return res, err
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		c.mu.Lock()
		c.refusal++
		c.mu.Unlock()
		return res, fmt.Errorf("%w: HTTP %d", errRefused, status)
	case status != http.StatusOK && status != http.StatusAccepted:
		return res, fmt.Errorf("submit: HTTP %d", status)
	}
	res.hit = sub.CacheHit
	if sub.State != serve.StateDone {
		// The progress stream ends once the job is terminal.
		if status, err = c.call(http.MethodGet, "/jobs/"+sub.ID+"/events", nil, nil); err != nil {
			return res, err
		}
		if status != http.StatusOK {
			return res, fmt.Errorf("events: HTTP %d", status)
		}
	}
	var payload bytes.Buffer
	tr.do("serve.fetch", func() {
		status, err = c.call(http.MethodGet, "/jobs/"+sub.ID+"/result", nil, &payload)
	})
	if err != nil {
		return res, err
	}
	if status != http.StatusOK {
		return res, fmt.Errorf("result: HTTP %d: %s", status, strings.TrimSpace(payload.String()))
	}
	res.payload = payload.Bytes()
	if !res.hit {
		var view serve.JobView
		if status, err = c.call(http.MethodGet, "/jobs/"+sub.ID, nil, &view); err != nil {
			return res, err
		}
		if status != http.StatusOK || view.StartedAt == nil || view.FinishedAt == nil {
			return res, fmt.Errorf("job record: HTTP %d, state %s", status, view.State)
		}
		res.hit = view.CacheHit
		res.submitted, res.started, res.finished = view.SubmittedAt, *view.StartedAt, *view.FinishedAt
	}
	return res, nil
}

// call makes one request. out is a *bytes.Buffer for the raw body, any
// other value for a JSON body decoded on 2xx, or nil to discard it.
func (c *client) call(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	switch o := out.(type) {
	case *bytes.Buffer:
		_, err = io.Copy(o, resp.Body)
	case nil:
		_, err = io.Copy(io.Discard, resp.Body)
	default:
		if resp.StatusCode/100 == 2 {
			err = json.NewDecoder(resp.Body).Decode(o)
		}
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, err
}

// serverStats reads the cache and retry counters from /metrics.json.
func (c *client) serverStats() map[string]float64 {
	var doc struct {
		Metrics []struct {
			Name  string   `json:"name"`
			Value *float64 `json:"value"`
		} `json:"metrics"`
	}
	out := map[string]float64{}
	if status, err := c.call(http.MethodGet, "/metrics.json", nil, &doc); err != nil || status != http.StatusOK {
		return out
	}
	vals := map[string]float64{}
	for _, m := range doc.Metrics {
		if m.Value != nil {
			vals[m.Name] = *m.Value
		}
	}
	hits, misses := vals["serve_cache_hits_total"], vals["serve_cache_misses_total"]
	if hits+misses > 0 {
		out["resultcache.hit_ratio"] = hits / (hits + misses)
	}
	out["resultcache.corrupt"] = vals["serve_cache_corrupt_total"]
	out["serve.retries"] = vals["serve_retries_total"]
	return out
}
