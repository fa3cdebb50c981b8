package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestWaitFinishedHonoursTimeout: a collector that accepts the /status
// request and never answers must not hold the supervisor past its
// -collect-timeout.
func TestWaitFinishedHonoursTimeout(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)

	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- waitFinished([]*collectorProc{{url: srv.URL}}, 200*time.Millisecond) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("waitFinished reported a collector that never answered as finished")
		}
		t.Logf("returned after %v: %v", time.Since(start), err)
	case <-time.After(2 * time.Second):
		t.Fatal("waitFinished still polling a silent collector 2s into a 200ms timeout")
	}
}
