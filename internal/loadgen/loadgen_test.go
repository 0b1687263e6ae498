package loadgen

import (
	"context"
	"testing"
	"time"

	"congestedclique/internal/service"
)

// TestRunRecordsStreamErrors injects a deterministic fault into every 2nd op
// of each stream with no retry budget: the measured window must complete with
// the failures counted per stream instead of aborting, and the percentiles
// must speak for the successful operations only.
func TestRunRecordsStreamErrors(t *testing.T) {
	const n = 16
	addr := startServiceServer(t, service.Config{N: n, MaxConcurrency: 2, QueueDepth: 32, AllowFaultInjection: true})
	res, err := Run(context.Background(), Config{Addr: addr, N: n, Streams: 2, OpsPerStream: 4, Workload: "route", FaultEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOps != 8 || res.FailedOps != 4 || res.SucceededOps != 4 {
		t.Fatalf("TotalOps=%d FailedOps=%d SucceededOps=%d, want 8/4/4", res.TotalOps, res.FailedOps, res.SucceededOps)
	}
	if len(res.StreamErrors) != 2 || res.StreamErrors[0] != 2 || res.StreamErrors[1] != 2 {
		t.Fatalf("StreamErrors = %v, want [2 2]", res.StreamErrors)
	}
	if res.FirstError == "" {
		t.Fatal("FirstError empty with failed operations")
	}
	if res.P50 <= 0 {
		t.Fatalf("percentiles must cover the successful ops: p50=%v", res.P50)
	}
}

// TestRunRejectsBadConfig pins the validation that runs before any dial.
func TestRunRejectsBadConfig(t *testing.T) {
	const addr = "127.0.0.1:1"
	for _, cfg := range []Config{
		{N: 8, Streams: 1, OpsPerStream: 1, Workload: "route"},
		{Addr: addr, N: 0, Streams: 1, OpsPerStream: 1, Workload: "route"},
		{Addr: addr, N: 8, Streams: 0, OpsPerStream: 1, Workload: "route"},
		{Addr: addr, N: 8, Streams: 1, OpsPerStream: 0, Workload: "route"},
		{Addr: addr, N: 8, Streams: 1, OpsPerStream: 1, Workload: "nope"},
		{Addr: addr, N: 8, Streams: 1, OpsPerStream: 1, Workload: "route", FaultEvery: -1},
		{Addr: addr, N: 8, Streams: 1, OpsPerStream: 1, Workload: "route", Retries: -1},
		{Addr: addr, N: 8, Streams: 1, Workload: "route", Rate: -1},
	} {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Fatalf("config %+v accepted, want error", cfg)
		}
	}
}

func TestPercentile(t *testing.T) {
	lat := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p    int
		want time.Duration
	}{{50, 5}, {90, 9}, {99, 10}, {100, 10}} {
		if got := percentile(lat, tc.p); got != tc.want {
			t.Fatalf("percentile(%d) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Fatalf("percentile(empty) = %v, want 0", got)
	}
}
