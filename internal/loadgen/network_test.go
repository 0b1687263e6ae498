package loadgen

import (
	"context"
	"net"
	"testing"
	"time"

	"congestedclique/internal/service"
)

// startServiceServer brings up a cliqued-equivalent server on a loopback
// port for the network-transport tests.
func startServiceServer(t *testing.T, cfg service.Config) string {
	t.Helper()
	srv, err := service.NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String()
}

func TestRunNetworkClosedLoopVerified(t *testing.T) {
	const n = 16
	addr := startServiceServer(t, service.Config{N: n, MaxConcurrency: 2, QueueDepth: 32})
	res, err := RunNetwork(context.Background(), NetworkConfig{
		Config: Config{N: n, Concurrency: 2, Streams: 3, OpsPerStream: 4, Workload: "mixed", Verify: true},
		Addr:   addr,
	})
	if err != nil {
		t.Fatalf("RunNetwork: %v", err)
	}
	if res.Verified != 3*4 {
		t.Errorf("verified %d ops, want %d", res.Verified, 12)
	}
	if res.SucceededOps != 12 || res.FailedOps != 0 || res.SheddedOps != 0 {
		t.Errorf("ok/failed/shed = %d/%d/%d, want 12/0/0", res.SucceededOps, res.FailedOps, res.SheddedOps)
	}
	if res.OpsPerSec <= 0 || res.P50 <= 0 || res.P999 < res.P50 {
		t.Errorf("implausible aggregates: %+v", res)
	}
}

func TestRunNetworkFaultedRetries(t *testing.T) {
	const n = 16
	addr := startServiceServer(t, service.Config{N: n, MaxConcurrency: 2, QueueDepth: 32,
		AllowFaultInjection: true})
	res, err := RunNetwork(context.Background(), NetworkConfig{
		Config: Config{N: n, Concurrency: 2, Streams: 2, OpsPerStream: 4, Workload: "route",
			Verify: true, FaultEvery: 2, Retries: 1},
		Addr: addr,
	})
	if err != nil {
		t.Fatalf("RunNetwork: %v", err)
	}
	if res.FailedOps != 0 {
		t.Errorf("faulted ops failed despite retry budget: %d (first: %s)", res.FailedOps, res.FirstError)
	}
	if res.Retries == 0 {
		t.Error("server-side retry counter did not move")
	}
}

func TestRunNetworkOpenLoopOverload(t *testing.T) {
	const n = 16
	// A deliberately tiny server: one engine and a queue just deep enough
	// that the closed-loop verification pass (4 streams) cannot shed, so an
	// offered rate far above capacity must — with every accepted result
	// still verifying against the golden (issue() verifies in open-loop
	// mode) and counted as verified.
	const streams, prePassOps = 4, 2
	addr := startServiceServer(t, service.Config{N: n, MaxConcurrency: 1, QueueDepth: streams})
	res, err := RunNetwork(context.Background(), NetworkConfig{
		Config:   Config{N: n, Concurrency: 1, Streams: streams, OpsPerStream: prePassOps, Workload: "route", Verify: true},
		Addr:     addr,
		Rate:     2000,
		Duration: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("RunNetwork: %v", err)
	}
	if want := streams*prePassOps + res.SucceededOps; res.Verified != want {
		t.Errorf("verified %d ops, want %d (the pre-pass's %d plus %d in-window successes)",
			res.Verified, want, streams*prePassOps, res.SucceededOps)
	}
	if res.SucceededOps == 0 {
		t.Fatal("no operation succeeded in the open-loop window")
	}
	if res.SheddedOps == 0 {
		t.Fatal("offered 2000/s against queue depth 1 and nothing was shed")
	}
	if res.FailedOps != 0 {
		t.Errorf("open-loop overload produced %d hard failures (first: %s)", res.FailedOps, res.FirstError)
	}
	t.Logf("open loop: offered %d, ok %d, shed %d, p50=%v p999=%v",
		res.TotalOps, res.SucceededOps, res.SheddedOps, res.P50, res.P999)
}

func TestRunNetworkRejectsMismatchedN(t *testing.T) {
	addr := startServiceServer(t, service.Config{N: 8})
	_, err := RunNetwork(context.Background(), NetworkConfig{
		Config: Config{N: 16, Concurrency: 1, Streams: 1, OpsPerStream: 1, Workload: "route"},
		Addr:   addr,
	})
	if err == nil {
		t.Fatal("n mismatch between run and server not rejected")
	}
}
