package chaos

import (
	"strings"
	"testing"
	"time"
)

func TestParseEmptyIsNil(t *testing.T) {
	for _, spec := range []string{"", "  ", "\t"} {
		inj, err := Parse(spec, 1)
		if err != nil || inj != nil {
			t.Fatalf("Parse(%q) = %v, %v; want nil, nil", spec, inj, err)
		}
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if act := inj.At(JournalBeforeFsync); act != ActNone {
		t.Fatalf("nil At = %v, want ActNone", act)
	}
	if n := inj.Hits(JournalBeforeFsync); n != 0 {
		t.Fatalf("nil Hits = %d, want 0", n)
	}
	inj.Exit() // must not crash the test process
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"crash",                                 // no point
		"explode@worker.solve",                  // unknown action
		"crash@nowhere",                         // unknown point
		"crash@worker.solve#0",                  // zero hit
		"crash@worker.solve#x",                  // non-numeric hit
		"crash@worker.solve:100ms",              // duration on non-stall
		"stall@worker.solve:notaperiod",         // bad duration
		"crash@worker.solve,crash@worker.solve", // duplicate point
		"arm@server.ack",                        // arm without a count
		"arm@server.ack#*",                      // arm on every hit
		"arm@server.ack#1,arm@server.ack#2",     // duplicate arm
		"arm@server.ack#1,crash@server.ack#1",   // fault at the arm point
	} {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestExplicitHitFires(t *testing.T) {
	inj, err := Parse("crash@queue.after-lease#3", 1)
	if err != nil {
		t.Fatal(err)
	}
	var exited []int
	inj.exit = func(code int) { exited = append(exited, code) }
	for i := 1; i <= 5; i++ {
		inj.At(QueueAfterLease)
	}
	if len(exited) != 1 || exited[0] != ExitCode {
		t.Fatalf("exit calls = %v, want one with code %d", exited, ExitCode)
	}
	if n := inj.Hits(QueueAfterLease); n != 5 {
		t.Fatalf("Hits = %d, want 5", n)
	}
}

func TestSeedDerivedHitDeterministic(t *testing.T) {
	fire := func(seed int64) int {
		inj, err := Parse("crash@worker.before-done", seed)
		if err != nil {
			t.Fatal(err)
		}
		fired := 0
		inj.exit = func(int) { fired = int(inj.Hits(WorkerBeforeDone)) }
		for i := 0; i < 16; i++ {
			inj.At(WorkerBeforeDone)
		}
		if fired == 0 {
			t.Fatalf("seed %d: fault never fired in 16 hits", seed)
		}
		return fired
	}
	hits := make(map[int]bool)
	for seed := int64(1); seed <= 8; seed++ {
		h1, h2 := fire(seed), fire(seed)
		if h1 != h2 {
			t.Fatalf("seed %d fired at hit %d then %d", seed, h1, h2)
		}
		if h1 < 1 || h1 > 8 {
			t.Fatalf("seed %d fired at hit %d, want [1, 8]", seed, h1)
		}
		hits[h1] = true
	}
	if len(hits) < 2 {
		t.Fatalf("8 seeds all fired at the same hit — no matrix coverage")
	}
}

func TestStallSleeps(t *testing.T) {
	inj, err := Parse("stall@worker.solve#2:137ms", 5)
	if err != nil {
		t.Fatal(err)
	}
	var slept time.Duration
	inj.sleep = func(d time.Duration) { slept += d }
	if act := inj.At(WorkerSolve); act != ActNone {
		t.Fatalf("hit 1 = %v, want ActNone", act)
	}
	if act := inj.At(WorkerSolve); act != ActStall {
		t.Fatalf("hit 2 = %v, want ActStall", act)
	}
	if slept != 137*time.Millisecond {
		t.Fatalf("slept %v, want 137ms", slept)
	}
	if act := inj.At(WorkerSolve); act != ActNone {
		t.Fatalf("hit 3 = %v, want ActNone (fires once)", act)
	}
}

func TestEveryHitStalls(t *testing.T) {
	inj, err := Parse("stall@worker.solve#*:13ms", 5)
	if err != nil {
		t.Fatal(err)
	}
	var slept time.Duration
	inj.sleep = func(d time.Duration) { slept += d }
	for hit := 1; hit <= 4; hit++ {
		if act := inj.At(WorkerSolve); act != ActStall {
			t.Fatalf("hit %d = %v, want ActStall (#* fires every time)", hit, act)
		}
	}
	if slept != 4*13*time.Millisecond {
		t.Fatalf("slept %v, want 52ms", slept)
	}
}

func TestTornReturnsForCaller(t *testing.T) {
	inj, err := Parse("torn@journal.before-fsync#1", 1)
	if err != nil {
		t.Fatal(err)
	}
	exited := false
	inj.exit = func(int) { exited = true }
	if act := inj.At(JournalBeforeFsync); act != ActCrashTorn {
		t.Fatalf("At = %v, want ActCrashTorn", act)
	}
	if exited {
		t.Fatal("ActCrashTorn exited inside At; the caller owns the torn write")
	}
	inj.Exit()
	if !exited {
		t.Fatal("Exit did not call the exit func")
	}
}

func TestMultiFaultPlan(t *testing.T) {
	inj, err := Parse("stall@worker.solve#1:1ms, crash@queue.after-lease#2", 1)
	if err != nil {
		t.Fatal(err)
	}
	inj.exit = func(int) {}
	inj.sleep = func(time.Duration) {}
	if act := inj.At(WorkerSolve); act != ActStall {
		t.Fatalf("worker.solve hit 1 = %v, want ActStall", act)
	}
	if act := inj.At(QueueAfterLease); act != ActNone {
		t.Fatalf("queue.after-lease hit 1 = %v, want ActNone", act)
	}
	inj.At(QueueAfterLease) // hit 2 fires crash (swapped exit)
	if n := inj.Hits(QueueAfterLease); n != 2 {
		t.Fatalf("Hits = %d, want 2", n)
	}
}

func TestParseErrorMentionsSpec(t *testing.T) {
	_, err := Parse("crash@worker.solve#0", 1)
	if err == nil || !strings.Contains(err.Error(), "hit index") {
		t.Fatalf("err = %v, want hit-index complaint", err)
	}
}

func TestArmHoldsFaultUntilReached(t *testing.T) {
	inj, err := Parse("crash@journal.before-fsync#2,arm@server.ack#1", 1)
	if err != nil {
		t.Fatal(err)
	}
	exited := make(chan int, 1)
	inj.exit = func(code int) { exited <- code }
	inj.At(JournalBeforeFsync)
	fired := make(chan Action, 1)
	go func() { fired <- inj.At(JournalBeforeFsync) }()
	select {
	case <-exited:
		t.Fatal("fault fired before the arm point was reached")
	case <-time.After(50 * time.Millisecond):
	}
	if act := inj.At(ServerAck); act != ActNone {
		t.Fatalf("arm point = %v, want ActNone", act)
	}
	if code := <-exited; code != ExitCode {
		t.Fatalf("exit code %d, want %d", code, ExitCode)
	}
	if act := <-fired; act != ActCrash {
		t.Fatalf("held hit = %v, want ActCrash", act)
	}
	if n := inj.Hits(JournalBeforeFsync); n != 2 {
		t.Fatalf("Hits = %d, want 2 (arming must not shift hit indices)", n)
	}
}

func TestArmAfterReachedDoesNotHold(t *testing.T) {
	inj, err := Parse("stall@worker.solve#1:1ms,arm@server.ack#1", 1)
	if err != nil {
		t.Fatal(err)
	}
	inj.sleep = func(time.Duration) {}
	inj.At(ServerAck)
	if act := inj.At(WorkerSolve); act != ActStall {
		t.Fatalf("hit 1 = %v, want ActStall", act)
	}
}
