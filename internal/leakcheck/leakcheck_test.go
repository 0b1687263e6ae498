package leakcheck

import (
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"testing"
)

// childEnv names the child test a re-executed test binary runs; the child
// tests skip themselves in a normal run.
const childEnv = "LEAKCHECK_CHILD"

func TestMain(m *testing.M) { Main(m) }

// TestMainVerdicts runs each child test in a re-executed test binary under
// Main: a goroutine left blocked must fail the binary, os/signal's watcher
// (which the fuzzing engine's coordinator starts) must not.
func TestMainVerdicts(t *testing.T) {
	if os.Getenv(childEnv) != "" {
		t.Skip("child process")
	}
	for _, tc := range []struct {
		child string
		fail  bool
	}{
		{"TestChildLeaks", true},
		{"TestChildWatchesSignals", false},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^"+tc.child+"$")
		cmd.Env = append(os.Environ(), childEnv+"="+tc.child)
		out, err := cmd.CombinedOutput()
		leaked := strings.Contains(string(out), "goroutines leaked")
		if (err != nil) != tc.fail || leaked != tc.fail {
			t.Errorf("%s: exit error %v, want failure %v; output:\n%s", tc.child, err, tc.fail, out)
		}
	}
}

func TestChildLeaks(t *testing.T) {
	if os.Getenv(childEnv) != t.Name() {
		t.Skip("runs only as a child of TestMainVerdicts")
	}
	block := make(chan struct{})
	go func() { <-block }()
}

func TestChildWatchesSignals(t *testing.T) {
	if os.Getenv(childEnv) != t.Name() {
		t.Skip("runs only as a child of TestMainVerdicts")
	}
	signal.Notify(make(chan os.Signal, 1), syscall.SIGUSR1)
}
