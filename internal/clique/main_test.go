package clique

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when goroutines outlive the tests. A Network
// keeps one parked coroutine per node from its first blocking run until
// Close, and a leaked coroutine is a parked goroutine nothing else would ever
// notice: every test must close the Networks it creates.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if err := settleGoroutines(before, 5*time.Second); err != nil {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "%v\n%s\n", err, buf[:runtime.Stack(buf, true)])
			code = 1
		}
	}
	os.Exit(code)
}

// settleGoroutines waits until at most want goroutines exist: exiting ones
// (stopped coroutines, a closed watchdog) need a moment to be gone.
func settleGoroutines(want int, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutines leaked: %d exist, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
