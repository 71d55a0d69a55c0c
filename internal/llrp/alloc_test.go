package llrp

import (
	"context"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"rfipad/internal/obs"
	"rfipad/internal/tagmodel"
)

// repeatSource serves the same batch forever.
type repeatSource struct{ batch []TagReport }

func (s repeatSource) Next() ([]TagReport, bool) { return s.batch, true }

// TestSessionWirePathAllocs pins the LLRP link at zero allocations per
// frame at steady state, counting both ends: the reader daemon encodes
// each 290-report batch into its connection's buffer and writes it
// under a write deadline, and the session reads it into its client's
// frame buffer under a read deadline and decodes it into its reused
// scratch. AllocsPerRun counts every goroutine, so the daemon's
// handler lands in the measurement too.
func TestSessionWirePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	// AllocsPerRun measures at GOMAXPROCS 1; warm up at that setting too.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	batch := make([]TagReport, 290)
	for i := range batch {
		batch[i] = TagReport{EPC: tagmodel.MakeEPC(i%25 + 1), AntennaID: 1,
			PhaseRad: math.Mod(float64(i)*0.37, 2*math.Pi), RSSdBm: -50 - float64(i%20),
			DopplerHz: float64(i%7) - 3, Timestamp: time.Duration(i) * 170 * time.Microsecond}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(func() ReportSource { return repeatSource{batch} })
	srv.WriteTimeout = 5 * time.Second
	go srv.Serve(l)
	defer srv.Close()
	sess, err := DialSession(context.Background(), SessionConfig{
		Addr: l.Addr().String(), KeepaliveInterval: -1, Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	next := func() {
		got, err := sess.NextReports()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(batch) || got[len(got)-1].Timestamp != batch[len(batch)-1].Timestamp {
			t.Fatalf("frame of %d reports, want %d", len(got), len(batch))
		}
	}
	for i := 0; i < 200; i++ {
		next()
	}
	if avg := testing.AllocsPerRun(2000, next); avg != 0 {
		t.Errorf("the wire path allocates %.3f objects per frame, want 0", avg)
	}
}
