// Package leakcheck fails a test binary whose goroutines outlive its tests.
// A clique.Network parks one coroutine per node until Close, which nothing
// else would notice: every package that builds a Network runs its tests
// under Main, so a missing Close (or Shutdown) fails the package.
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Main runs the package's tests and exits with their status, or with 1 when
// they passed but left more goroutines behind than existed before them. Call
// it from TestMain.
//
// The one goroutine it tolerates is os/signal's watcher, which the fuzzing
// engine's coordinator starts (signal.Notify) and which lives until the
// process exits: it is left out of the count before the tests and after.
func Main(m *testing.M) {
	before := runtime.NumGoroutine() - signalWatchers()
	code := m.Run()
	if code == 0 {
		if err := Settle(before+signalWatchers(), 5*time.Second); err != nil {
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

// signalWatchers counts the goroutines running os/signal's watcher loop (at
// most one: the package starts it once per process).
func signalWatchers() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("\nos/signal.loop()\n"))
}
