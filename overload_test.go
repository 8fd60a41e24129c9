package exactsim

import (
	"testing"
	"time"
)

// TestShedErrorsPinned: a shed and a CoDel drop keep their messages and
// their retry_after_ms hints. On an idle queue the hint is the sojourn
// target in whole milliseconds (rounded down), 10 ms when age drops are
// disabled, and never below 1 ms.
func TestShedErrorsPinned(t *testing.T) {
	g := GenerateBarabasiAlbert(50, 3, 7)
	for _, tc := range []struct {
		target time.Duration
		wantMs int64
	}{
		{0, 5}, {-1, 10}, {300 * time.Microsecond, 1}, {2500 * time.Microsecond, 2},
	} {
		svc, err := NewService(g, ServiceOptions{Workers: 1, QueueTarget: tc.target})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []struct {
			reason queueDropReason
			pri    Priority
			want   string
		}{
			{dropShed, PriorityBackground, "exactsim: background query shed: queue full"},
			{dropShed, "", "exactsim: interactive query shed: queue full"},
			{dropCoDel, PriorityBatch, "exactsim: batch query dropped: queue dwell over target (CoDel)"},
		} {
			job := &serviceJob{st: svc.state.Load(), req: Request{Source: 1, Priority: d.pri},
				resp: make(chan Response, 1)}
			svc.dropJob(job, d.reason)
			r := <-job.resp
			if r.Err == nil || r.Err.Code != CodeUnavailable || r.Err.Message != d.want ||
				r.Err.RetryAfterMillis != tc.wantMs {
				t.Errorf("target %v, %v drop: err = %+v, want unavailable %q with retry_after_ms %d",
					tc.target, d.reason, r.Err, d.want, tc.wantMs)
			}
		}
		svc.Close()
	}
}
