package study

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"chainchaos/internal/obs"
)

// listenerShape is one farm shape for the listener-lifetime tests.
type listenerShape struct {
	name  string
	reuse float64
	dedup bool
}

func (s listenerShape) config(sites int, reg *obs.Registry) Config {
	return Config{
		Sites: sites, Seed: 6, Vantages: 1, Concurrency: 2,
		Reuse: s.reuse, DistinctChains: 16, Dedup: s.dedup, Metrics: reg,
	}
}

// TestStudyLiveListenersBounded: a listener lives only inside its scan, so
// at the default pipeline depth — a reorder window of 66 sites per stage —
// no more than Concurrency listeners are open when any record retires, and
// none is open once the run returns.
func TestStudyLiveListenersBounded(t *testing.T) {
	for _, shape := range []listenerShape{
		{"unique", 0, false},
		{"reuse dedup", 0.9, true},
		{"reuse no dedup", 0.9, false},
	} {
		t.Run(shape.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := shape.config(300, reg)
			live := reg.Gauge("serve.listeners")
			var peak int64
			_, err := RunStream(context.Background(), cfg, Stream{Record: func(int, []byte) error {
				peak = max(peak, live.Value())
				return nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			if peak > int64(cfg.Concurrency) {
				t.Errorf("%d listeners open at a record, Concurrency %d", peak, cfg.Concurrency)
			}
			if n := live.Value(); n != 0 {
				t.Errorf("%d listeners open after the run", n)
			}
		})
	}
}

// TestStudyNoListenerLeak: every exit path of a study — a full run, the
// context cancelled from the sink, a sink error — closes every listener it
// started and leaves no goroutine behind, for unique sites and for Dedup
// slots.
func TestStudyNoListenerLeak(t *testing.T) {
	boom := errors.New("boom")
	paths := []struct {
		name string
		run  func(cfg Config) error
	}{
		{"full run", func(cfg Config) error {
			_, err := RunStream(context.Background(), cfg, Stream{Record: func(int, []byte) error { return nil }})
			return err
		}},
		{"cancel", func(cfg Config) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := RunStream(ctx, cfg, Stream{Record: func(rank int, _ []byte) error {
				if rank == 49 {
					cancel()
				}
				return nil
			}})
			if !errors.Is(err, context.Canceled) {
				return fmt.Errorf("err = %v, want context.Canceled", err)
			}
			return nil
		}},
		{"record error", func(cfg Config) error {
			_, err := RunStream(context.Background(), cfg, Stream{Record: func(rank int, _ []byte) error {
				if rank == 50 {
					return boom
				}
				return nil
			}})
			if !errors.Is(err, boom) {
				return fmt.Errorf("err = %v, want %v", err, boom)
			}
			return nil
		}},
	}
	for _, shape := range []listenerShape{{"unique", 0, false}, {"dedup slots", 0.9, true}} {
		for _, p := range paths {
			t.Run(shape.name+"/"+p.name, func(t *testing.T) {
				reg := obs.NewRegistry()
				base := runtime.NumGoroutine()
				if err := p.run(shape.config(120, reg)); err != nil {
					t.Fatal(err)
				}
				if n := reg.Gauge("serve.listeners").Value(); n != 0 {
					t.Errorf("%d listeners open after the run", n)
				}
				for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						buf := make([]byte, 1<<16)
						t.Fatalf("%d goroutines after the run, baseline %d:\n%s",
							runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
					}
				}
			})
		}
	}
}
