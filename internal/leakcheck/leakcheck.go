// Package leakcheck fails a test binary whose goroutines outlive its tests.
// A clique.Network parks one coroutine per node until Close, which nothing
// else would notice: every package that builds a Network runs its tests
// under Main, so a missing Close (or Shutdown) fails the package.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Main runs the package's tests and exits with their status, or with 1 when
// they passed but left more goroutines behind than existed before them. Call
// it from TestMain.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if err := Settle(before, 5*time.Second); err != nil {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "%v\n%s\n", err, buf[:runtime.Stack(buf, true)])
			code = 1
		}
	}
	os.Exit(code)
}

// Settle waits until at most want goroutines exist, for up to patience:
// exiting ones (stopped coroutines, a closed watchdog) need a moment to be
// gone.
func Settle(want int, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutines leaked: %d exist, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
