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
	res, err := Run(context.Background(), Config{Addr: addr, N: n, Streams: 3, OpsPerStream: 4, Workload: "mixed", Verify: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
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

// TestRunNetworkFaultedRetries gives the injected-fault operations of a
// mixed load a server-side retry budget: every operation must recover (the
// fault plan is consumed by the first attempt), verify bit-identical to the
// serial golden, and the retries must surface in the result.
func TestRunNetworkFaultedRetries(t *testing.T) {
	const n = 16
	addr := startServiceServer(t, service.Config{N: n, MaxConcurrency: 2, QueueDepth: 32,
		AllowFaultInjection: true})
	res, err := Run(context.Background(), Config{Addr: addr, N: n, Streams: 2, OpsPerStream: 4, Workload: "mixed",
		Verify: true, FaultEvery: 2, Retries: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.FailedOps != 0 || res.SucceededOps != 8 || res.Verified != 8 {
		t.Errorf("failed/ok/verified = %d/%d/%d, want 0/8/8 (first: %s)", res.FailedOps, res.SucceededOps, res.Verified, res.FirstError)
	}
	// 2 faulted ops per stream in the measured pass, one retry each.
	if res.Retries != 4 {
		t.Errorf("server-side retries = %d, want 4", res.Retries)
	}
}

func TestRunNetworkOpenLoopOverload(t *testing.T) {
	const n = 16
	// A deliberately tiny server: one engine and a queue just deep enough
	// that the closed-loop verification pass (4 streams) cannot shed, so an
	// offered rate far above capacity must — with every accepted result
	// still verifying against the golden (the open loop verifies in-window)
	// and counted as verified.
	const streams, prePassOps = 4, 2
	addr := startServiceServer(t, service.Config{N: n, MaxConcurrency: 1, QueueDepth: streams})
	res, err := Run(context.Background(), Config{Addr: addr, N: n, Streams: streams, OpsPerStream: prePassOps,
		Workload: "route", Verify: true, Rate: 2000, Duration: 500 * time.Millisecond})
	if err != nil {
		t.Fatalf("Run: %v", err)
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
	if _, err := Run(context.Background(), Config{Addr: addr, N: 16, Streams: 1, OpsPerStream: 1, Workload: "route"}); err == nil {
		t.Fatal("n mismatch between run and server not rejected")
	}
}
