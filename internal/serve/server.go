// Package serve is the long-running sweep service: an HTTP/JSON API
// that accepts simulation, sweep, replay, and corpus jobs, runs them
// on a bounded worker pool through the deterministic engine, memoizes
// results in a crash-safe content-addressed cache, and exposes its own
// operational metrics at /metrics.
//
// Robustness is the design center — the operational analogue of the
// simulated machine's fail-stop machinery:
//
//   - Admission control: the job queue is bounded; a full queue
//     rejects with 429 and a Retry-After hint instead of growing
//     without bound, and a draining server rejects with 503.
//   - Deadlines: each attempt runs under a context deadline threaded
//     into the simulation kernel's interrupt check (plus the optional
//     virtual-time MaxCycles budget), so no wedged scenario can pin a
//     worker forever.
//   - Panic isolation: a panicking job fails alone, with the panic
//     value and stack preserved in its job record; the worker and the
//     server keep serving.
//   - Retry with exponential backoff and jitter for transient failure
//     classes (result-cache I/O, attempts that miss their deadline
//     under load); the retry count is visible in the job record and
//     /metrics.
//   - Graceful drain: SIGTERM (via Drain) stops admission, lets
//     running jobs finish up to a drain deadline, cancels stragglers,
//     and persists the still-pending queue atomically so a restarted
//     server resumes exactly the work it was holding.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metricreg"
	"repro/internal/resultcache"
)

// Config tunes a Server. The zero value is usable: sensible defaults,
// no cache, no persistence.
type Config struct {
	// QueueDepth bounds the pending-job queue (default 64).
	QueueDepth int
	// Workers is the number of concurrent jobs (default GOMAXPROCS).
	Workers int
	// DefaultDeadline caps an attempt's wall-clock time when the spec
	// does not set one (default 2m). Zero after defaulting disables.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines (default 10m).
	MaxDeadline time.Duration
	// DrainTimeout is how long Drain waits for running jobs before
	// canceling them (default 30s).
	DrainTimeout time.Duration
	// MaxRetries bounds transient-failure retries per job (default 3).
	MaxRetries int
	// RetryBase is the first backoff delay (default 250ms); each retry
	// doubles it up to RetryMax (default 5s), with jitter.
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetryAfter is the hint returned with 429/503 (default 1s).
	RetryAfter time.Duration
	// CacheDir enables the result cache rooted there ("" = no cache).
	CacheDir string
	// StateDir enables pending-queue persistence ("" = none).
	StateDir string
	// Version stamps cache keys with the code version so model changes
	// miss (default "dev").
	Version string
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 2 * time.Minute
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = 10 * time.Minute
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 250 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 5 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Version == "" {
		c.Version = "dev"
	}
	return c
}

// maxTerminalJobs bounds how many terminal (done, failed, canceled)
// job records the server keeps. Past it, the oldest terminal record is
// evicted and its ID answers 404; queued and running jobs are never
// evicted. Without the bound, live heap grows with every job served.
const maxTerminalJobs = 1024

// Server is the sweep service. Create with New, start workers with
// Start, mount Handler on an http.Server, and call Drain on SIGTERM.
type Server struct {
	cfg   Config
	cache *resultcache.Cache // nil when caching is off
	q     *queue

	mu   sync.Mutex
	cond sync.Cond // broadcast on any job change (progress streaming)
	jobs map[string]*Job
	seq  int
	// terminal holds the IDs of the terminal jobs still in jobs, oldest
	// first (see retainLocked).
	terminal []string

	running  atomic.Int64
	draining atomic.Bool
	wg       sync.WaitGroup

	// Metrics is the service's metric registry; /metrics renders it
	// with the promLabels constant labels.
	Metrics *metricreg.Registry
	met     metrics

	// failHook, when set, runs before every attempt and can force a
	// failure — the test seam for the retry/backoff and panic-isolation
	// machinery (a returned Transient error is retried; a panic inside
	// the hook exercises isolation).
	failHook func(job *Job, attempt int) error
	// sleep is the backoff sleeper, replaceable in tests.
	sleep func(ctx context.Context, d time.Duration)
}

// promLabels are the constant labels on every /metrics sample.
var promLabels = map[string]string{"service": "cedarserved"}

// metrics are the service's operational instruments.
type metrics struct {
	submitted     metricreg.Counter
	rejectedFull  metricreg.Counter
	rejectedDrain metricreg.Counter
	done          metricreg.Counter
	failed        metricreg.Counter
	canceled      metricreg.Counter
	panics        metricreg.Counter
	retries       metricreg.Counter
	deadlines     metricreg.Counter
	cacheWriteErr metricreg.Counter
	drainSeconds  metricreg.Gauge
}

// New builds a server: opens the cache, registers metrics, and resumes
// any persisted pending queue (the jobs are re-enqueued under their
// original IDs and the queue file is removed). Workers do not run
// until Start.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		q:       newQueue(cfg.QueueDepth),
		jobs:    map[string]*Job{},
		Metrics: metricreg.New(),
		sleep: func(ctx context.Context, d time.Duration) {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
			}
		},
	}
	s.cond.L = &s.mu
	if cfg.CacheDir != "" {
		var err error
		if s.cache, err = resultcache.Open(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	s.registerMetrics()
	if cfg.StateDir != "" {
		if err := s.resume(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *Server) registerMetrics() {
	m := s.Metrics
	m.GaugeFunc("serve_queue_depth", "jobs waiting for a worker", "", func() float64 {
		return float64(s.q.depth())
	})
	m.GaugeFunc("serve_running_jobs", "jobs currently executing", "", func() float64 {
		return float64(s.running.Load())
	})
	s.met.submitted = m.Counter("serve_jobs_submitted_total", "jobs accepted into the queue or served from cache", "")
	s.met.rejectedFull = m.Counter("serve_jobs_rejected_full_total", "submissions rejected 429 because the queue was full", "")
	s.met.rejectedDrain = m.Counter("serve_jobs_rejected_draining_total", "submissions rejected 503 while draining", "")
	s.met.done = m.Counter("serve_jobs_done_total", "jobs completed successfully", "")
	s.met.failed = m.Counter("serve_jobs_failed_total", "jobs that ended in failure", "")
	s.met.canceled = m.Counter("serve_jobs_canceled_total", "jobs canceled by a client or by drain", "")
	s.met.panics = m.Counter("serve_job_panics_total", "jobs that panicked (isolated to the job)", "")
	s.met.retries = m.Counter("serve_retries_total", "transient-failure retries", "")
	s.met.deadlines = m.Counter("serve_deadline_exceeded_total", "attempts stopped by the per-job deadline", "")
	s.met.cacheWriteErr = m.Counter("serve_cache_write_errors_total", "result-cache write failures", "")
	s.met.drainSeconds = m.Gauge("serve_drain_seconds", "duration of the last graceful drain", "")
	if s.cache != nil {
		m.CounterFunc("serve_cache_hits_total", "result-cache hits", "", func() float64 {
			return float64(s.cache.Stats().Hits)
		})
		m.CounterFunc("serve_cache_misses_total", "result-cache misses", "", func() float64 {
			return float64(s.cache.Stats().Misses)
		})
		m.CounterFunc("serve_cache_corrupt_total", "corrupt result-cache entries detected and discarded", "", func() float64 {
			return float64(s.cache.Stats().Corrupt)
		})
		m.GaugeFunc("serve_cache_entries", "complete entries in the result cache", "", func() float64 {
			return float64(s.cache.Len())
		})
	}
}

// resume re-enqueues a persisted pending queue. A job whose spec no
// longer validates (the registry changed across the restart) is
// registered as failed rather than silently dropped.
func (s *Server) resume() error {
	pending, err := loadQueue(s.cfg.StateDir)
	if err != nil {
		return err
	}
	for _, pj := range pending {
		job := &Job{ID: pj.ID, Spec: pj.Spec, State: StateQueued, SubmittedAt: pj.SubmittedAt}
		if scs, verr := job.Spec.Validate(); verr != nil {
			job.State = StateFailed
			job.Error = fmt.Sprintf("resumed job no longer valid: %v", verr)
			job.FinishedAt = time.Now()
			s.retainLocked(job)
		} else {
			job.scenarios = scs
			if !s.q.push(job) {
				job.State = StateFailed
				job.Error = "resumed queue exceeds the configured queue depth"
				job.FinishedAt = time.Now()
				s.retainLocked(job)
			}
		}
		s.jobs[job.ID] = job
	}
	if len(pending) > 0 {
		os.Remove(queueFile(s.cfg.StateDir))
	}
	return nil
}

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Draining reports whether the server has stopped admission.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully shuts the job layer down: admission stops (503),
// queued jobs stay queued, running jobs get until ctx's deadline (or
// the configured DrainTimeout when ctx has none) to finish and are
// then canceled, and the pending queue is persisted for the next
// process. Safe to call once; the HTTP listener is the caller's to
// close.
func (s *Server) Drain(ctx context.Context) error {
	start := time.Now()
	s.draining.Store(true)
	s.q.close()
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DrainTimeout)
		defer cancel()
	}

	// The pool is fully drained exactly when every worker has exited:
	// the queue is closed, so each worker returns as soon as its
	// current job (if any) finishes. Waiting on the pool rather than on
	// a running-jobs counter closes the race with a worker that popped
	// a job just before close but has not yet registered it as running
	// — such a job still holds its worker, and the pool does not exit
	// until it is done or canceled.
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		// Deadline passed: cancel stragglers until the pool exits. The
		// sweep repeats because a worker may register a freshly popped
		// job only after a cancel pass has already run; each registered
		// job is then stopped at the kernel's next interrupt check.
		for draining := true; draining; {
			s.mu.Lock()
			for _, j := range s.jobs {
				if j.State == StateRunning && j.cancel != nil {
					if j.Error == "" {
						j.Error = "canceled: server draining"
					}
					j.cancel()
				}
			}
			s.mu.Unlock()
			select {
			case <-drained:
				draining = false
			case <-time.After(2 * time.Millisecond):
			}
		}
	}

	var err error
	if s.cfg.StateDir != "" {
		err = persistQueue(s.cfg.StateDir, s.q.snapshot())
	}
	s.met.drainSeconds.Set(time.Since(start).Seconds())
	return err
}

// newID mints a job ID: a monotonic sequence number plus random bits
// so IDs stay unique across restarts that resume persisted jobs.
func (s *Server) newID() string {
	var b [4]byte
	rand.Read(b[:])
	s.seq++
	return fmt.Sprintf("j%06d-%s", s.seq, hex.EncodeToString(b[:]))
}

// addEvent appends a progress line to the job's log and wakes
// streamers. Takes the server lock.
func (s *Server) addEvent(job *Job, msg string) {
	s.mu.Lock()
	job.events = append(job.events, ProgressEvent{At: time.Now(), Msg: msg})
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Transient marks an error as retryable: the retry machinery backs
// off and re-attempts jobs failing with one, up to MaxRetries.
func Transient(err error) error { return &transientError{err} }

type transientError struct{ err error }

func (e *transientError) Error() string { return "transient: " + e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// cacheWriteError is a computed result whose cache write failed: a
// transient class, but one that carries the payload so the final
// attempt can succeed without recomputing.
type cacheWriteError struct {
	err     error
	payload []byte
}

func (e *cacheWriteError) Error() string { return "result-cache write failed: " + e.err.Error() }
func (e *cacheWriteError) Unwrap() error { return e.err }

// panicError is a recovered job panic.
type panicError struct {
	val   string
	stack string
}

func (e *panicError) Error() string { return "job panicked: " + e.val }

// isTransient classifies retryable failures: explicit Transient marks,
// cache-write failures, and attempts that missed their wall-clock
// deadline (load-dependent — a later attempt may find a free worker or
// a warm cache).
func isTransient(err error) bool {
	var te *transientError
	var ce *cacheWriteError
	return errors.As(err, &te) || errors.As(err, &ce) || errors.Is(err, context.DeadlineExceeded)
}

// isAbort reports a job stopped by cancellation (client cancel or
// drain) rather than by its own failure.
func isAbort(err error) bool { return errors.Is(err, context.Canceled) }

// backoff returns the exponential-with-jitter delay before retry
// attempt (0-based): base<<attempt capped at RetryMax, then jittered
// to [d/2, d) so a burst of retries does not re-synchronize.
func (s *Server) backoff(attempt int) time.Duration {
	d := s.cfg.RetryBase << uint(attempt)
	if d > s.cfg.RetryMax || d <= 0 {
		d = s.cfg.RetryMax
	}
	half := d / 2
	return half + time.Duration(mrand.Int63n(int64(half)+1))
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		job, ok := s.q.pop()
		if !ok {
			return
		}
		s.runJob(job)
	}
}

// runJob drives one job through attempts, retries, and its terminal
// state. Panics never escape: they are recorded on the job.
func (s *Server) runJob(job *Job) {
	s.mu.Lock()
	if job.canceled {
		s.finishLocked(job, StateCanceled, "canceled before start")
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	job.State = StateRunning
	job.StartedAt = time.Now()
	job.cancel = cancel
	job.events = append(job.events, ProgressEvent{At: job.StartedAt, Msg: "started"})
	s.cond.Broadcast()
	s.mu.Unlock()
	s.running.Add(1)
	defer s.running.Add(-1)
	defer cancel()

	deadline := s.cfg.DefaultDeadline
	if job.Spec.DeadlineMS > 0 {
		deadline = time.Duration(job.Spec.DeadlineMS) * time.Millisecond
		if deadline > s.cfg.MaxDeadline {
			deadline = s.cfg.MaxDeadline
		}
	}

	var payload []byte
	var err error
	for attempt := 0; ; attempt++ {
		payload, err = s.attempt(ctx, job, attempt, deadline)
		if err == nil {
			break
		}
		var pe *panicError
		if errors.As(err, &pe) || isAbort(err) {
			break
		}
		if !isTransient(err) || attempt >= s.cfg.MaxRetries {
			// Out of attempts. A cache-write failure still has the
			// result in hand: serve it rather than fail the job over a
			// sick disk.
			var cw *cacheWriteError
			if errors.As(err, &cw) {
				payload, err = cw.payload, nil
				s.addEvent(job, "serving result despite cache write failure")
			}
			break
		}
		d := s.backoff(attempt)
		s.mu.Lock()
		job.Retries++
		job.events = append(job.events, ProgressEvent{At: time.Now(),
			Msg: fmt.Sprintf("attempt %d failed (%v); retrying in %v", attempt+1, err, d.Round(time.Millisecond))})
		s.cond.Broadcast()
		s.mu.Unlock()
		s.met.retries.Inc()
		s.sleep(ctx, d)
		if ctx.Err() != nil {
			err = ctx.Err()
			break
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	var pe *panicError
	switch {
	case err == nil:
		job.result = payload
		s.finishLocked(job, StateDone, "")
	case errors.As(err, &pe):
		job.PanicVal = pe.val
		job.Stack = pe.stack
		s.met.panics.Inc()
		s.finishLocked(job, StateFailed, pe.Error())
	case isAbort(err):
		reason := job.Error // drain pre-fills "canceled: server draining"
		if reason == "" {
			reason = "canceled"
		}
		s.finishLocked(job, StateCanceled, reason)
	default:
		s.finishLocked(job, StateFailed, err.Error())
	}
}

// finishLocked moves a job to a terminal state and stamps it with the
// service's scalar metric snapshot. Caller holds s.mu; the snapshot's
// pull functions read the queue, the running counter, and the cache —
// none re-enter s.mu.
func (s *Server) finishLocked(job *Job, state, errMsg string) {
	job.State = state
	if errMsg != "" {
		job.Error = errMsg
	}
	job.FinishedAt = time.Now()
	job.events = append(job.events, ProgressEvent{At: job.FinishedAt, Msg: state})
	switch state {
	case StateDone:
		s.met.done.Inc()
	case StateFailed:
		s.met.failed.Inc()
	case StateCanceled:
		s.met.canceled.Inc()
	}
	job.Metrics = s.Metrics.Snapshot().Scalars()
	s.retainLocked(job)
	s.cond.Broadcast()
}

// retainLocked records that job has reached a terminal state and
// evicts the oldest terminal records beyond maxTerminalJobs. Caller
// holds s.mu (or owns the server exclusively, as resume does).
func (s *Server) retainLocked(job *Job) {
	s.terminal = append(s.terminal, job.ID)
	if len(s.terminal) > maxTerminalJobs {
		delete(s.jobs, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
}

// attempt runs one try of the job: cache lookup, execution under the
// per-attempt deadline, cache fill. A panic anywhere inside — the
// simulation, the cache, the hook — comes back as *panicError.
func (s *Server) attempt(jobCtx context.Context, job *Job, attempt int, deadline time.Duration) (payload []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: fmt.Sprint(r), stack: string(debug.Stack())}
		}
	}()
	if h := s.failHook; h != nil {
		if herr := h(job, attempt); herr != nil {
			return nil, herr
		}
	}
	useCache := s.cache != nil && !job.Spec.NoCache
	key := job.Spec.cacheKey(s.cfg.Version)
	if useCache {
		if p, ok := s.cache.Get(key); ok {
			s.mu.Lock()
			job.CacheHit = true
			s.mu.Unlock()
			s.addEvent(job, "result cache hit")
			return p, nil
		}
	}
	ctx := jobCtx
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(jobCtx, deadline)
		defer cancel()
	}
	payload, err = job.Spec.execute(ctx, job.scenarios, func(msg string) { s.addEvent(job, msg) })
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) && jobCtx.Err() == nil {
			s.met.deadlines.Inc()
			return nil, fmt.Errorf("attempt deadline %v exceeded: %w", deadline, err)
		}
		return nil, err
	}
	if useCache {
		if perr := s.cache.Put(key, payload); perr != nil {
			s.met.cacheWriteErr.Inc()
			return nil, &cacheWriteError{err: perr, payload: payload}
		}
	}
	return payload, nil
}
