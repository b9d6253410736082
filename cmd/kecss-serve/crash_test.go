package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	kecss "repro"
	"repro/internal/chaos"
	"repro/internal/graph"
	"repro/internal/journal"
	"repro/internal/wire"
)

// buildServeBinary compiles this package once per test run.
var buildServeBinary = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "kecss-serve-test")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "kecss-serve")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return bin, nil
})

func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

// crashJob is one request of the workload plus its expected result digest
// from a direct in-process solve (the byte-identity oracle).
type crashJob struct {
	req          *wire.SolveRequest
	digest       string
	resultDigest string
}

func crashWorkload(t *testing.T, n int) []crashJob {
	t.Helper()
	jobs := make([]crashJob, n)
	for i := range jobs {
		seed := int64(101 + 2*i)
		g := graph.Harary(2, 16+i, graph.RandomWeights(rand.New(rand.NewSource(seed)), 30))
		spec := wire.SolveSpec{Solver: "2ecss", Seed: seed}
		res, err := kecss.Solve2ECSS(g, kecss.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = crashJob{
			req:          &wire.SolveRequest{Graph: wire.GraphToJSON(g), SolveSpec: spec},
			digest:       wire.Digest(g, spec),
			resultDigest: wire.SolveResultDigest(res.Edges, res.Weight, res.Rounds),
		}
	}
	return jobs
}

// serveProc is one incarnation of the kecss-serve binary under test.
type serveProc struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

func startServe(t *testing.T, bin, wal string, port int, chaosSpec string, seed int64) *serveProc {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-workers", "1",
		"-solve-workers", "1",
		"-journal", wal,
		"-queue", "64",
		"-lease-ttl", "500ms",
		"-backoff-base", "10ms",
		"-backoff-max", "100ms",
		"-seed", fmt.Sprint(seed),
		"-chaos", chaosSpec,
	)
	var logs bytes.Buffer
	cmd.Stdout = &logs
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serveProc{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	t.Cleanup(func() {
		select {
		case <-p.done:
		default:
			cmd.Process.Kill()
			<-p.done
		}
		if t.Failed() {
			t.Logf("kecss-serve output:\n%s", logs.String())
		}
	})
	return p
}

// waitReady polls /readyz until it answers 200 or the process exits.
func (p *serveProc) waitReady(t *testing.T, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		select {
		case err := <-p.done:
			p.done <- err
			t.Fatalf("kecss-serve exited while waiting for readiness: %v", err)
		default:
		}
		resp, err := http.Get(p.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("kecss-serve not ready after %v", timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// exitedPlanned waits for the process to exit and reports whether the exit
// was the planned chaos crash (exit code 43).
func (p *serveProc) exitedPlanned(t *testing.T, timeout time.Duration) bool {
	t.Helper()
	select {
	case err := <-p.done:
		p.done <- err
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode() == chaos.ExitCode
		}
		return false
	case <-time.After(timeout):
		return false
	}
}

// submitAsync posts one job; it returns the acked job ID, or "" if the
// server dropped the connection (the job was never acknowledged and is
// exempt from the exactly-once contract).
func submitAsync(t *testing.T, base string, req *wire.SolveRequest) string {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		return "" // connection dropped mid-crash: not acked
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d: %s", resp.StatusCode, body)
	}
	var jr wire.JobResponse
	if err := json.Unmarshal(body, &jr); err != nil || jr.ID == "" {
		return ""
	}
	return jr.ID
}

func pollDone(t *testing.T, base, id string, timeout time.Duration) *wire.SolveResponse {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var jr wire.JobResponse
			if resp.StatusCode == http.StatusOK && json.Unmarshal(body, &jr) == nil {
				switch jr.State {
				case wire.JobDone:
					return jr.Result
				case wire.JobFailed:
					t.Fatalf("job %s failed after restart: %s", id, jr.Error)
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not done after %v", id, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCrashRestartMatrix is the tentpole's integration harness: for each
// planned fault, run the real binary, inject the crash (or SIGKILL a stalled
// worker), restart on the same journal, and assert every acknowledged job is
// eventually served exactly once with a result digest byte-identical to a
// direct in-process solve.
func TestCrashRestartMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix spawns real processes; skipped in -short")
	}
	bin, err := buildServeBinary()
	if err != nil {
		t.Fatal(err)
	}

	scenarios := []struct {
		name string
		plan string
		seed int64
		kill bool // SIGKILL instead of waiting for a planned exit
	}{
		{name: "crash-before-fsync", plan: "crash@journal.before-fsync#2", seed: 1},
		{name: "torn-before-fsync", plan: "torn@journal.before-fsync#2", seed: 1},
		{name: "crash-after-lease", plan: "crash@queue.after-lease#1", seed: 1},
		{name: "crash-before-done", plan: "crash@worker.before-done#1", seed: 1},
		{name: "crash-before-done-seeded", plan: "crash@worker.before-done", seed: 7},
		{name: "stall-then-sigkill", plan: "stall@worker.solve#1:30s", seed: 1, kill: true},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			// Eight jobs: enough that a seed-derived hit index (uniform in
			// [1, 8]) always lands on a real delivery.
			jobs := crashWorkload(t, 8)
			wal := filepath.Join(t.TempDir(), "journal.wal")

			// Arming on the first flushed ack makes the fault wait for it:
			// in fused mode the agent may claim and journal a job before
			// its 202 leaves the handler, and a fault that fires then
			// leaves nothing acknowledged to check.
			p1 := startServe(t, bin, wal, freePort(t), sc.plan+",arm@server.ack#1", sc.seed)
			p1.waitReady(t, 10*time.Second)

			// Submit the workload; under a crash plan some POSTs may lose
			// their connection — only acknowledged jobs are tracked.
			acked := make(map[string]int) // job ID → workload index
			for i, job := range jobs {
				if id := submitAsync(t, p1.base, job.req); id != "" {
					acked[id] = i
				}
			}
			if len(acked) == 0 {
				t.Fatal("no job was acknowledged before the fault")
			}

			if sc.kill {
				// The stalled worker holds its lease past the TTL; kill the
				// process outright mid-solve.
				time.Sleep(200 * time.Millisecond)
				p1.cmd.Process.Signal(syscall.SIGKILL)
				if p1.exitedPlanned(t, 10*time.Second) {
					t.Fatal("SIGKILLed process reported a planned exit")
				}
			} else if !p1.exitedPlanned(t, 20*time.Second) {
				t.Fatal("server did not die with the planned-crash exit code")
			}

			// Restart without chaos on the same journal: replay must finish
			// every acknowledged job.
			p2 := startServe(t, bin, wal, freePort(t), "", sc.seed)
			p2.waitReady(t, 10*time.Second)
			for id, i := range acked {
				res := pollDone(t, p2.base, id, 30*time.Second)
				if res == nil {
					t.Fatalf("job %s done without result", id)
				}
				if res.Digest != jobs[i].digest || res.ResultDigest != jobs[i].resultDigest {
					t.Errorf("job %s digests (%s, %s), want (%s, %s)",
						id, res.Digest, res.ResultDigest, jobs[i].digest, jobs[i].resultDigest)
				}
			}

			// Exactly-once on the durable record: across both incarnations
			// the journal holds exactly one done record per acknowledged job
			// (and none for unacked ones is not required — they may exist if
			// the ack raced the crash, but never twice).
			p2.cmd.Process.Signal(syscall.SIGTERM)
			<-p2.done
			p2.done <- nil
			rep, err := journal.ReadAll(wal)
			if err != nil {
				t.Fatal(err)
			}
			doneCount := make(map[string]int)
			for _, rec := range rep.Records {
				if rec.Type == journal.TypeDone {
					doneCount[rec.JobID]++
				}
			}
			for id := range acked {
				if doneCount[id] != 1 {
					t.Errorf("job %s has %d done records, want exactly 1", id, doneCount[id])
				}
			}
			for id, n := range doneCount {
				if n > 1 {
					t.Errorf("job %s journaled done %d times", id, n)
				}
			}
		})
	}
}
