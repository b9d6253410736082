package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// job is one admitted solve — the durable unit of work. Sync requests,
// async jobs and replayed journal entries all become jobs; a job finishes
// exactly once (state transitions queued → running → done|failed), every
// waiter is released by the done channel, and the finishing transition is
// claimed under the job lock so duplicate queue deliveries cannot double-
// journal or double-release.
type job struct {
	id     string
	digest string
	// work is the decoded pool task (rebuilt from rawReq for replayed jobs).
	work *solveWork
	// rawReq is the canonical request JSON, journaled in the accepted
	// record so a restart can rebuild work.
	rawReq json.RawMessage
	// deadline, when non-zero, is the latest useful completion time.
	deadline time.Time
	// admitted reports whether this job holds an admission slot (replayed
	// jobs do not; they were admitted by a previous incarnation).
	admitted bool

	mu        sync.Mutex
	state     string              // guarded by mu
	attempt   int                 // guarded by mu; deliveries so far
	finishing bool                // guarded by mu
	resp      *wire.SolveResponse // guarded by mu
	err       *solveError         // guarded by mu
	done      chan struct{}       // closed on finish

	// Trace state (lock order: j.mu before trace.mu — the trace never
	// calls back into the job). trace is nil for jobs that never entered
	// the queue (cache-hit async jobs, replayed finished jobs).
	trace        *telemetry.Trace  // guarded by mu
	rootSpan     telemetry.SpanRef // guarded by mu; the "job" span, open for the job's life
	waitSpan     telemetry.SpanRef // guarded by mu; the current "queue.wait" span
	claimSpan    telemetry.SpanRef // guarded by mu; the current attempt's "claim" span
	waitStart    time.Time         // guarded by mu; when the current queue.wait began
	claimAt      time.Time         // guarded by mu; when the current claim began
	claimAttempt int               // guarded by mu; the attempt claimSpan belongs to
}

func newJob(id, digest string) *job {
	return &job{id: id, digest: digest, state: wire.JobQueued, done: make(chan struct{})}
}

func (j *job) snapshot() wire.JobResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := wire.JobResponse{ID: j.id, State: j.state, Attempts: j.attempt}
	switch j.state {
	case wire.JobDone:
		out.Result = j.resp
	case wire.JobFailed:
		out.Error = j.err.msg
	}
	return out
}

func (j *job) setRunning(attempt int) {
	j.mu.Lock()
	if j.state == wire.JobQueued || j.state == wire.JobRunning {
		j.state = wire.JobRunning
		j.attempt = attempt
	}
	j.mu.Unlock()
}

// tryFinish claims the finishing transition: the first caller gets true and
// must follow through with finish (journaling in between); later callers —
// duplicate deliveries of an expired lease — get false and walk away.
func (j *job) tryFinish() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finishing {
		return false
	}
	j.finishing = true
	return true
}

// finish publishes the outcome and releases every waiter. The caller must
// have won tryFinish.
func (j *job) finish(resp *wire.SolveResponse, serr *solveError) {
	j.mu.Lock()
	if serr != nil {
		j.state, j.err = wire.JobFailed, serr
	} else {
		j.state, j.resp = wire.JobDone, resp
	}
	j.mu.Unlock()
	close(j.done)
}

func (j *job) finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// jobStore indexes jobs by ID and evicts the oldest *finished* jobs beyond
// the history bound; unfinished jobs are never evicted.
type jobStore struct {
	mu      sync.Mutex
	max     int             // immutable after newJobStore
	jobs    map[string]*job // guarded by mu
	order   []string        // guarded by mu; creation order, for eviction scans
	counter int64           // guarded by mu
}

func newJobStore(max int) *jobStore {
	return &jobStore{max: max, jobs: make(map[string]*job)}
}

// create mints a new job with a fresh ID and registers it.
func (s *jobStore) create(digest string) *job {
	s.mu.Lock()
	s.counter++
	j := newJob(fmt.Sprintf("j%06d-%s", s.counter, digest[:12]), digest)
	s.insertLocked(j)
	s.mu.Unlock()
	return j
}

// insert registers a job that already has an ID (journal replay), bumping
// the ID counter past it so new IDs never collide with replayed ones.
func (s *jobStore) insert(j *job) {
	var n int64
	fmt.Sscanf(j.id, "j%d-", &n)
	s.mu.Lock()
	if n > s.counter {
		s.counter = n
	}
	s.insertLocked(j)
	s.mu.Unlock()
}

func (s *jobStore) insertLocked(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
}

func (s *jobStore) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// evictLocked drops the oldest finished jobs until at most max remain.
func (s *jobStore) evictLocked() {
	if len(s.jobs) <= s.max {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		if j.finished() && len(s.jobs) > s.max {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// handleJobCreate is POST /v1/jobs: 202 with a queued job (or a born-done
// job on a cache hit); 429/503 when admission is refused. Concurrent
// submissions of one digest share a single durable job — the job ID is a
// content-addressed handle, so duplicates get the in-flight job's ID
// instead of a second solve.
func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	work, rawReq, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	var j *job
	if resp, ok := s.storeGet(work.digest); ok {
		s.metrics.cacheHits.Add(1)
		j = s.jobs.create(work.digest)
		out := *resp
		out.Cached = true
		if j.tryFinish() {
			j.finish(&out, nil)
		}
	} else {
		var serr *solveError
		if j, _, serr = s.ensureJob(work, rawReq); serr != nil {
			s.writeSolveError(w, serr)
			return
		}
	}
	writeJSON(w, http.StatusAccepted, j.snapshot())
	// Under a chaos plan the ack point counts only acks the client can
	// already read, so a fault armed on it cannot fire ahead of them.
	// Without one the response is left unflushed and keeps its
	// Content-Length framing.
	if s.inj != nil {
		_ = http.NewResponseController(w).Flush()
		s.inj.At(chaos.ServerAck)
	}
}

// handleJobGet is GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleDeadLetters is GET /v1/deadletters: the jobs that exhausted their
// retry budget since startup (the newest DeadLetterCap of them; ?limit=N
// asks for at most the newest N).
func (s *Server) handleDeadLetters(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q: want a non-negative integer", v)
			return
		}
		limit = n
	}
	dead := s.queue.DeadLetters(limit)
	out := wire.DeadLettersResponse{DeadLetters: []wire.DeadLetter{}}
	for _, d := range dead {
		out.DeadLetters = append(out.DeadLetters, wire.DeadLetter{
			JobID:    d.Job.ID,
			Digest:   d.Job.Digest,
			Attempts: d.Job.Attempt,
			Reason:   d.Reason,
			Unix:     d.At.Unix(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}
