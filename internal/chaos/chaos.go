// Package chaos is a deterministic fault-injection harness for the serving
// stack. A Plan names crash/stall faults at well-known instrumentation
// points (see the Point constants); an Injector counts hits on each point
// and fires the planned fault on the configured hit — always the same hit
// for the same plan string and seed, so a crash test that passes once
// passes forever.
//
// Plans are spelled as comma-separated fault specs:
//
//	crash@journal.before-fsync#3    exit before the 3rd batch is written
//	torn@journal.before-fsync#2     write half the 2nd batch, then exit
//	crash@queue.after-lease#1       exit after the 1st lease is journaled
//	stall@worker.solve#2:300ms      sleep 300ms inside the 2nd solve
//	stall@worker.solve#*:20ms       sleep 20ms inside every solve
//	crash@worker.before-done#1      exit after solving, before the done record
//	arm@server.ack#1                hold the other faults until the 1st job ack is flushed
//
// The `#n` hit index is 1-based. When omitted, the hit is derived from the
// plan seed (splitmix64), uniformly in [1, 8] — a cheap way to get a seed
// matrix out of one spec. `#*` fires on every hit instead of one — with
// stall this turns a fault plan into a latency model (each solve costs at
// least the stall), which is how the CI agent-scaling smoke makes
// horizontal scaling visible on a small runner.
//
// An `arm` entry orders the plan against the client's view: a fault whose
// planned hit arrives before the arm point has been hit n times waits there
// until it has. Crash tests use arm@server.ack#1 so that at least one job
// is acknowledged before the fault fires, however the scheduler orders the
// in-process agent against the HTTP handler. The planned hit indices are
// unchanged by arming; only the moment the fault fires moves.
//
// An empty plan string yields a nil Injector, and every Injector method is
// nil-safe, so production code calls the hooks unconditionally.
//
// The process-killing actions call os.Exit(ExitCode) — the test harness
// treats that exit code as "planned crash". Torn writes are performed by
// the instrumented code itself (the journal writes a prefix of its pending
// batch) via the ActCrashTorn action, because only the owner of the file
// knows what a convincing torn tail looks like.
package chaos

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Point names one instrumented fault site.
type Point string

// The instrumented points in the serving stack.
const (
	// JournalBeforeFsync fires in the journal flusher after a batch is
	// assembled but before any of it reaches the file. ActCrash here loses
	// the whole un-acked batch; ActCrashTorn writes a prefix first.
	JournalBeforeFsync Point = "journal.before-fsync"
	// QueueAfterLease fires in the server worker after a claim's lease
	// record is durably journaled, before the solve starts.
	QueueAfterLease Point = "queue.after-lease"
	// WorkerSolve fires inside the worker immediately before the solve
	// runs; a stall here outlives the lease TTL and forces redelivery.
	WorkerSolve Point = "worker.solve"
	// WorkerBeforeDone fires after a solve succeeds, before its done
	// record is journaled — the job must be re-solved on restart.
	WorkerBeforeDone Point = "worker.before-done"
	// StorePut fires in the result store after the temp file is written,
	// before the rename publishes it. ActCrash here leaves only a *.tmp
	// file, which recovery must sweep; ActCrashTorn truncates the temp
	// file first, modeling a torn final record.
	StorePut Point = "store.put"
	// ServerAck fires in the POST /v1/jobs handler after the 202 has been
	// flushed to the client. It carries no fault of its own; it is the
	// point an `arm` entry counts.
	ServerAck Point = "server.ack"
)

// Action is what an instrumentation point should do right now.
type Action int

const (
	// ActNone: proceed normally (the common case).
	ActNone Action = iota
	// ActCrash: the caller must not proceed; Injector.At already called
	// os.Exit unless the point is ActCrashTorn-aware (it is not for
	// ActCrash — At exits directly).
	ActCrash
	// ActCrashTorn: the caller should produce a torn artifact (write a
	// prefix of its pending bytes) and then call Exit.
	ActCrashTorn
	// ActStall: At already slept for the planned duration; proceed.
	ActStall
	// actArm marks a parsed arm entry; At never returns it.
	actArm
)

// ExitCode is the status a planned crash exits with, letting the harness
// distinguish planned crashes from genuine panics.
const ExitCode = 43

// fault is one parsed spec entry.
type fault struct {
	action Action
	hit    uint64 // 1-based hit index on which to fire
	every  bool   // fire on every hit (`#*`) instead of one
	stall  time.Duration
	fired  bool
	once   bool // crash faults fire at most once even if the process survives
}

// Injector counts hits per point and fires planned faults. A nil *Injector
// is inert; all methods are nil-safe.
type Injector struct {
	mu     sync.Mutex
	counts map[Point]uint64 // guarded by mu
	plan   map[Point]*fault // guarded by mu
	// armPt and armHits are the plan's arm entry; armed is closed once
	// armPt has been hit armHits times. armed is nil without an arm entry.
	armPt   Point
	armHits uint64
	armed   chan struct{}
	// exit is os.Exit, swappable for the injector's own tests.
	exit func(int)
	// sleep is time.Sleep, swappable for tests.
	sleep func(time.Duration)
}

// Parse builds an Injector from a plan spec (see the package comment).
// An empty spec returns (nil, nil). The seed fills in omitted hit indices.
func Parse(spec string, seed int64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	inj := &Injector{
		counts: make(map[Point]uint64),
		plan:   make(map[Point]*fault),
		exit:   os.Exit,
		sleep:  time.Sleep,
	}
	rng := uint64(seed)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, pt, err := parseFault(part, &rng)
		if err != nil {
			return nil, err
		}
		if f.action == actArm {
			if inj.armed != nil {
				return nil, fmt.Errorf("chaos: duplicate arm entry %q", part)
			}
			inj.armPt, inj.armHits, inj.armed = pt, f.hit, make(chan struct{})
			continue
		}
		if _, dup := inj.plan[pt]; dup {
			return nil, fmt.Errorf("chaos: duplicate fault for point %q", pt)
		}
		inj.plan[pt] = f
	}
	if _, clash := inj.plan[inj.armPt]; clash && inj.armed != nil {
		return nil, fmt.Errorf("chaos: point %q carries both a fault and the arm entry", inj.armPt)
	}
	return inj, nil
}

// splitmix64 advances the plan seed; used only to derive omitted hit
// indices deterministically.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func parseFault(part string, rng *uint64) (*fault, Point, error) {
	actionStr, rest, ok := strings.Cut(part, "@")
	if !ok {
		return nil, "", fmt.Errorf("chaos: fault %q: want action@point[#hit][:stall]", part)
	}
	f := &fault{hit: splitmix64(rng)%8 + 1, once: true}
	switch actionStr {
	case "crash":
		f.action = ActCrash
	case "torn":
		f.action = ActCrashTorn
	case "stall":
		f.action = ActStall
		f.stall = 250 * time.Millisecond
	case "arm":
		f.action = actArm
	default:
		return nil, "", fmt.Errorf("chaos: unknown action %q (want crash, torn, stall or arm)", actionStr)
	}
	if rest2, stallStr, ok := strings.Cut(rest, ":"); ok {
		if f.action != ActStall {
			return nil, "", fmt.Errorf("chaos: fault %q: only stall takes a duration", part)
		}
		d, err := time.ParseDuration(stallStr)
		if err != nil {
			return nil, "", fmt.Errorf("chaos: fault %q: %v", part, err)
		}
		f.stall = d
		rest = rest2
	}
	pointStr, hitStr, hasHit := strings.Cut(rest, "#")
	if f.action == actArm && (!hasHit || hitStr == "*") {
		return nil, "", fmt.Errorf("chaos: fault %q: arm needs an explicit hit count", part)
	}
	if hasHit {
		if hitStr == "*" {
			f.every = true
		} else {
			n, err := strconv.ParseUint(hitStr, 10, 32)
			if err != nil || n == 0 {
				return nil, "", fmt.Errorf("chaos: fault %q: hit index must be a positive integer or *", part)
			}
			f.hit = n
		}
	}
	switch pt := Point(pointStr); pt {
	case JournalBeforeFsync, QueueAfterLease, WorkerSolve, WorkerBeforeDone, StorePut, ServerAck:
		return f, pt, nil
	default:
		return nil, "", fmt.Errorf("chaos: unknown point %q", pointStr)
	}
}

// At records a hit on pt and fires its planned fault when the hit index
// matches, first waiting for the plan's arm entry if it has one and it has
// not yet been reached. ActCrash exits the process here. ActStall sleeps
// here and returns ActStall. ActCrashTorn returns without exiting: the
// caller produces its torn artifact and then calls Exit. Nil-safe.
func (inj *Injector) At(pt Point) Action {
	if inj == nil {
		return ActNone
	}
	inj.mu.Lock()
	inj.counts[pt]++
	if inj.armed != nil && pt == inj.armPt && inj.counts[pt] == inj.armHits {
		close(inj.armed)
	}
	f := inj.plan[pt]
	if f == nil || f.fired || (!f.every && inj.counts[pt] != f.hit) {
		inj.mu.Unlock()
		return ActNone
	}
	if !f.every {
		f.fired = true
	}
	inj.mu.Unlock()
	if inj.armed != nil {
		<-inj.armed
	}
	switch f.action {
	case ActCrash:
		inj.exit(ExitCode)
		return ActCrash // only reached with a swapped exit func
	case ActStall:
		inj.sleep(f.stall)
		return ActStall
	}
	return f.action
}

// Exit terminates the process with the planned-crash exit code. Callers use
// it to finish an ActCrashTorn after writing the torn artifact. Nil-safe:
// a nil Injector ignores the call (no plan, no crash).
func (inj *Injector) Exit() {
	if inj == nil {
		return
	}
	inj.exit(ExitCode)
}

// Hits reports how many times pt has been reached. Nil-safe.
func (inj *Injector) Hits(pt Point) uint64 {
	if inj == nil {
		return 0
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.counts[pt]
}
