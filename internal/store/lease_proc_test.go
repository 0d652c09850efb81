package store

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// leaseChildEnv marks a re-executed test binary as one contending process and
// carries the store root it contends in.
const leaseChildEnv = "DIVLAB_LEASE_CHILD_ROOT"

const (
	leaseProcs  = 6   // contending child processes
	leaseNames  = 3   // leases they contend for
	leaseRounds = 150 // acquire attempts per child
)

// TestMultiProcessLease: child processes re-executed from this test binary
// contend for a few leases on one FS root, and no lease ever has two holders
// at once. Each holder appends an enter record after acquiring and an exit
// record before releasing to one O_APPEND log, so every record lands whole
// and in the order the writes happened; the parent replays the log and
// fails on any enter while another holder is inside. Every lease starts out
// held by a crashed (expired) owner, so the children also race to break it.
func TestMultiProcessLease(t *testing.T) {
	if root := os.Getenv(leaseChildEnv); root != "" {
		leaseChild(t, root)
		return
	}
	root := t.TempDir()
	crashed, err := OpenFS(root)
	if err != nil {
		t.Fatal(err)
	}
	crashed.WithClock(func() time.Time { return time.Now().Add(-time.Hour) })
	for m := 0; m < leaseNames; m++ {
		if _, ok, err := crashed.TryLease(leaseName(m), time.Minute); err != nil || !ok {
			t.Fatalf("seed stale lease %d: ok=%v err=%v", m, ok, err)
		}
	}

	cmds := make([]*exec.Cmd, leaseProcs)
	outs := make([]bytes.Buffer, leaseProcs)
	for i := range cmds {
		cmd := exec.Command(os.Args[0], "-test.run=^TestMultiProcessLease$")
		cmd.Env = append(os.Environ(), leaseChildEnv+"="+root)
		cmd.Stdout, cmd.Stderr = &outs[i], &outs[i]
		if err := cmd.Start(); err != nil {
			t.Fatalf("start child %d: %v", i, err)
		}
		cmds[i] = cmd
	}
	// Release the children together so their rounds overlap.
	if err := os.WriteFile(filepath.Join(root, "start"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Errorf("child %d: %v\n%s", i, err, outs[i].String())
		}
	}
	if t.Failed() {
		return
	}

	f, err := os.Open(filepath.Join(root, "holders.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	inside := map[string]map[string]bool{} // lease -> current holders
	acquired := map[string]int{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		var op, lease, who string
		if _, err := fmt.Sscan(sc.Text(), &op, &lease, &who); err != nil {
			t.Fatalf("log line %d %q: %v", line, sc.Text(), err)
		}
		switch op {
		case "enter":
			if len(inside[lease]) > 0 {
				t.Errorf("log line %d: %s entered %s while %v held it", line, who, lease, inside[lease])
			}
			if inside[lease] == nil {
				inside[lease] = map[string]bool{}
			}
			inside[lease][who] = true
			acquired[lease]++
		case "exit":
			if !inside[lease][who] {
				t.Errorf("log line %d: %s left %s without entering it", line, who, lease)
			}
			delete(inside[lease], who)
		default:
			t.Fatalf("log line %d: unknown record %q", line, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for lease, whos := range inside {
		for who := range whos {
			t.Errorf("%s never left %s", who, lease)
		}
	}
	for m := 0; m < leaseNames; m++ {
		if acquired[leaseName(m)] == 0 {
			t.Errorf("%s was never acquired; its stale lease was not broken", leaseName(m))
		}
	}
	t.Logf("acquisitions per lease: %v", acquired)
}

func leaseName(m int) string { return fmt.Sprintf("contended-%d", m) }

// leaseChild is one contending process: it waits for the start file, then
// tries each lease in turn, logging enter and exit around a short hold.
func leaseChild(t *testing.T, root string) {
	s, err := OpenFS(root)
	if err != nil {
		t.Fatal(err)
	}
	holders, err := os.OpenFile(filepath.Join(root, "holders.log"), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer holders.Close()
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		if _, err := os.Stat(filepath.Join(root, "start")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("start file never appeared")
		}
	}
	record := func(op, lease, who string) {
		// One write per record: O_APPEND places it whole at the end.
		if _, err := fmt.Fprintf(holders, "%s %s %s\n", op, lease, who); err != nil {
			t.Fatal(err)
		}
	}
	pid := os.Getpid()
	for r := 0; r < leaseRounds; r++ {
		lease := leaseName((pid + r) % leaseNames)
		release, ok, err := s.TryLease(lease, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		who := fmt.Sprintf("%d/%d", pid, r)
		record("enter", lease, who)
		time.Sleep(100 * time.Microsecond)
		record("exit", lease, who)
		if err := release(); err != nil {
			t.Fatal(err)
		}
	}
}
