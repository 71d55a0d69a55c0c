package cluster_test

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rfipad/internal/cluster"
	"rfipad/internal/core"
	"rfipad/internal/engine"
	"rfipad/internal/live"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
	"rfipad/internal/replay"
)

// drainService is one recognition service the drain loop feeds, as
// TestDrainExitRules drives it.
type drainService struct {
	run   func(engine.StreamID, live.ReportSource) error
	close func()
	// closing reports that Close has begun.
	closing func() bool
	// errClosed is what run returns once Close has begun.
	errClosed error
	// batches counts the batches the service took in.
	batches func() int
	// flushes counts the drain loop's flushes where the service can
	// show them (the bare loop); nil where only the letters show one.
	flushes func() int
}

// errLoopClosed is the bare loop's ErrClosed.
var errLoopClosed = errors.New("loop: closed")

// drainTargets are the services the exit rules run through: the
// engine, a one-node cluster, and the bare drain loop feeding one
// live.Stream on the calling goroutine, which can show its flushes.
var drainTargets = []struct {
	name  string
	start func(t *testing.T, reg *obs.Registry, tape *letterTape) drainService
}{
	{"engine", func(t *testing.T, reg *obs.Registry, tape *letterTape) drainService {
		eng := engine.New(engine.Config{Workers: 1, Obs: reg,
			OnEvent: func(id engine.StreamID, ev core.Event) { tape.onEvent("", id, ev) }})
		return drainService{
			run: eng.RunStream, close: func() { eng.Close() },
			closing:   func() bool { return reg.Snapshot().Value("engine_accepting") == 0 },
			errClosed: engine.ErrClosed,
			batches:   func() int { return int(reg.Snapshot().Value("engine_batches_total")) },
		}
	}},
	{"cluster", func(t *testing.T, reg *obs.Registry, tape *letterTape) drainService {
		c := cluster.New(cluster.Config{EngineWorkers: 1, Obs: reg, OnEvent: tape.onEvent})
		if _, err := c.AddNode("node-0"); err != nil {
			t.Fatal(err)
		}
		return drainService{
			run: c.RunStream, close: func() { c.Close() },
			// The node's engine closes only after the coordinator has.
			closing:   func() bool { return reg.Snapshot().Value("engine_accepting") == 0 },
			errClosed: cluster.ErrClosed,
			batches:   func() int { return int(reg.Snapshot().Value("engine_batches_total")) },
		}
	}},
	{"loop", func(t *testing.T, reg *obs.Registry, tape *letterTape) drainService {
		var closed atomic.Bool
		var batches, flushes atomic.Int64
		d := live.Drainer{Panics: engine.PanicCounter(reg)}
		return drainService{
			run: func(id engine.StreamID, src live.ReportSource) error {
				st := live.NewStream(live.Config{Obs: reg})
				emit := func(evs []core.Event) {
					for _, ev := range evs {
						tape.onEvent("", id, ev)
					}
				}
				return d.Drain(string(id), src, func(b *core.ReadingBatch) error {
					defer core.PutBatch(b)
					if closed.Load() {
						return errLoopClosed
					}
					batches.Add(1)
					evs, err := st.IngestBatch(b)
					if err != nil {
						t.Errorf("IngestBatch: %v", err)
					}
					emit(evs)
					return nil
				}, func() {
					flushes.Add(1)
					emit(st.Flush())
				})
			},
			close:     func() { closed.Store(true) },
			closing:   closed.Load,
			errClosed: errLoopClosed,
			batches:   func() int { return int(batches.Load()) },
			flushes:   func() int { return int(flushes.Load()) },
		}
	}},
}

// TestDrainExitRules runs every exit rule of the one drain loop
// (live.Drainer.Drain) through engine.RunStream, cluster.RunStream and
// the bare loop:
//   - a clean end returns nil, and the flush brings the last letter out
//     before Close;
//   - a source error is returned wrapped, and the stream is flushed;
//   - a source panic becomes an error naming it, the stream is
//     flushed, and the panic is counted exactly once;
//   - a push refused because Close has begun returns the service's
//     ErrClosed at once, with no further pull and no flush, and the
//     cluster counts the batch in hand as dropped (the engine pools
//     it: TestRunStreamPushPoolsRefusedBatch);
//   - a zero-length frame is skipped: it reaches no service as a batch.
func TestDrainExitRules(t *testing.T) {
	reports, err := replay.Synthesize(97, "IT", 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for src := (&unpacedSource{reports: reports}); ; frames++ {
		if _, err := src.NextReports(); err != nil {
			break
		}
	}

	errLink := errors.New("link lost")
	cases := []struct {
		name string
		src  func(svc drainService) live.ReportSource
		// letters is what must be out before Close ("" skips the check).
		letters string
		check   func(t *testing.T, svc drainService, reg *obs.Registry, src live.ReportSource, err error)
	}{
		{"clean end", func(drainService) live.ReportSource { return &unpacedSource{reports: reports} }, "IT",
			func(t *testing.T, svc drainService, _ *obs.Registry, _ live.ReportSource, err error) {
				if err != nil {
					t.Errorf("err = %v, want nil", err)
				}
			}},
		{"source error", func(drainService) live.ReportSource {
			return failSource{&unpacedSource{reports: reports}, errLink}
		}, "IT",
			func(t *testing.T, svc drainService, _ *obs.Registry, _ live.ReportSource, err error) {
				if !errors.Is(err, errLink) {
					t.Errorf("err = %v, want it to wrap %v", err, errLink)
				}
			}},
		{"source panic", func(drainService) live.ReportSource { return panicSource{&unpacedSource{reports: reports}} }, "IT",
			func(t *testing.T, svc drainService, reg *obs.Registry, _ live.ReportSource, err error) {
				if err == nil || !strings.Contains(err.Error(), "source panicked: source detonated") {
					t.Errorf("err = %v, want it to name the panic", err)
				}
				if got := reg.Snapshot().Value("engine_stream_panics_total"); got != 1 {
					t.Errorf("engine_stream_panics_total = %v, want 1", got)
				}
			}},
		{"push refused once Close has begun", func(svc drainService) live.ReportSource {
			return &closingSource{frame: reports[:64], closing: svc.closing, close: svc.close}
		}, "",
			func(t *testing.T, svc drainService, reg *obs.Registry, src live.ReportSource, err error) {
				if !errors.Is(err, svc.errClosed) {
					t.Errorf("err = %v, want %v", err, svc.errClosed)
				}
				if pulls := src.(*closingSource).pulls; pulls != 2 {
					t.Errorf("source pulled %d times, want 2: none after the refused push", pulls)
				}
				if svc.flushes != nil && svc.flushes() != 0 {
					t.Errorf("flushes = %d, want 0", svc.flushes())
				}
				want := 0.0
				if svc.errClosed == cluster.ErrClosed {
					want = 1 // the batch in hand
				}
				if got := reg.Snapshot().Value("cluster_dropped_batches_total"); got != want {
					t.Errorf("cluster_dropped_batches_total = %v, want %v", got, want)
				}
			}},
		{"zero-length frames", func(drainService) live.ReportSource {
			return &gappySource{unpacedSource: &unpacedSource{reports: reports}}
		}, "IT",
			func(t *testing.T, svc drainService, _ *obs.Registry, _ live.ReportSource, err error) {
				if err != nil {
					t.Errorf("err = %v, want nil", err)
				}
				if got := svc.batches(); got != frames {
					t.Errorf("batches taken in = %d, want %d: one per non-empty frame", got, frames)
				}
			}},
	}
	for _, tc := range cases {
		for _, target := range drainTargets {
			t.Run(tc.name+"/"+target.name, func(t *testing.T) {
				reg := obs.NewRegistry()
				tape := newLetterTape()
				svc := target.start(t, reg, tape)
				defer svc.close()
				src := tc.src(svc)
				err := svc.run("plate-0", src)
				if tc.letters != "" {
					waitFor(t, 10*time.Second, "letters "+tc.letters+" before Close", func() bool {
						return tape.get("plate-0") == tc.letters
					})
					if svc.flushes != nil && svc.flushes() != 1 {
						t.Errorf("flushes = %d, want 1", svc.flushes())
					}
				}
				tc.check(t, svc, reg, src, err)
			})
		}
	}
}

// failSource delivers its capture, then fails with err where it would
// report the stream's end.
type failSource struct {
	*unpacedSource
	err error
}

func (s failSource) NextReports() ([]llrp.TagReport, error) {
	reports, err := s.unpacedSource.NextReports()
	if errors.Is(err, llrp.ErrStreamEnded) {
		return nil, s.err
	}
	return reports, err
}

// gappySource puts two empty frames, a nil one and a zero-length one,
// before every frame of its capture.
type gappySource struct {
	*unpacedSource
	n int
}

func (s *gappySource) NextReports() ([]llrp.TagReport, error) {
	s.n++
	switch s.n % 3 {
	case 1:
		return nil, nil
	case 2:
		return []llrp.TagReport{}, nil
	}
	return s.unpacedSource.NextReports()
}

// closingSource delivers frame, then begins closing its service and
// delivers frame again once Close has begun. It counts its pulls.
type closingSource struct {
	frame   []llrp.TagReport
	closing func() bool
	close   func()
	pulls   int
}

func (s *closingSource) NextReports() ([]llrp.TagReport, error) {
	s.pulls++
	if s.pulls == 2 {
		go s.close()
		for !s.closing() {
			time.Sleep(time.Millisecond)
		}
	}
	return s.frame, nil
}

// TestClusterFlushDuringMigrationIsKept pins that a flush survives a
// migration. A source that ends mid-handoff gets nil from RunStream, so
// its last letter must come out on the new owner once the handoff
// lands, not wait for Close: the flush is kept with the batches
// buffered meanwhile and applied after them.
func TestClusterFlushDuringMigrationIsKept(t *testing.T) {
	reg := obs.NewRegistry()
	tape := newLetterTape()
	cfg := fastConfig(reg)
	cfg.OnEvent = tape.onEvent
	// While hold is set, the handoff dial waits for release: the window
	// in which the stream's placement is migrating.
	var hold atomic.Bool
	var once sync.Once
	dialing, release := make(chan struct{}), make(chan struct{})
	cfg.Dial = func(network, addr string) (net.Conn, error) {
		if hold.Load() {
			once.Do(func() { close(dialing) })
			<-release
		}
		return net.DialTimeout(network, addr, time.Second)
	}
	c := cluster.New(cfg)
	defer c.Close()
	if _, err := c.AddNode("node-0"); err != nil {
		t.Fatal(err)
	}

	const id = engine.StreamID("plate-0")
	phase1, max1 := synthBatches(t, 56, "IT", 0)
	pushAll(c, id, phase1)
	c.FlushStream(id)
	waitFor(t, 10*time.Second, `letters "IT"`, func() bool { return tape.get(id) == "IT" })
	if _, err := c.AddNode("node-1"); err != nil {
		t.Fatal(err)
	}
	if owner, _ := c.Owner(id); owner != "node-0" {
		t.Fatalf("%s moved to %s on the join; the test needs a stream that only the leave moves", id, owner)
	}

	hold.Store(true)
	left := make(chan error, 1)
	go func() {
		_, err := c.Leave("node-0")
		left <- err
	}()
	<-dialing
	phase2, _ := synthLetters(t, 56, "L", max1+3*time.Second)
	for i, b := range phase2 {
		if !c.Push(id, b) {
			t.Fatalf("batch %d of %d was not buffered", i+1, len(phase2))
		}
	}
	c.FlushStream(id)
	close(release)
	if err := <-left; err != nil {
		t.Fatal(err)
	}
	if owner, _ := c.Owner(id); owner != "node-1" {
		t.Fatalf("after the leave, owner = %q, want node-1", owner)
	}
	waitFor(t, 5*time.Second, `letter "L" from the flush kept through the handoff`, func() bool {
		return tape.get(id) == "ITL"
	})
}
