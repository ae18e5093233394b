package cluster

import (
	"reflect"
	"testing"

	"ibis/internal/broker"
	"ibis/internal/faults"
	"ibis/internal/iosched"
	"ibis/internal/sim"
)

// rigLookahead is the fabric rig's cross-shard latency.
const rigLookahead = 0.01

// linkRig connects coordination clients to one centralized broker, on a
// single engine or across a 2-shard fabric (clients on shard 0, broker
// on shard 1). Test bodies schedule live events on eng that drive the
// links, then call run.
type linkRig struct {
	eng *sim.Engine // the clients' engine
	b   *broker.Broker
	// reqLat is the request leg's latency: a direct call on a single
	// engine, one lookahead on the fabric.
	reqLat float64
	link   func() *link // a fresh client link
	run    func()
}

// newRig builds a rig in mode "single" or "fabric" against a fresh
// broker and a fresh injector compiled from spec.
func newRig(mode string, spec faults.Spec) linkRig {
	b, inj := broker.New(), faults.New(spec)
	if mode == "single" {
		eng := sim.NewEngine()
		return linkRig{
			eng: eng, b: b,
			link: func() *link { return newLink(central{b}, inj, eng, nil, nil) },
			run:  func() { eng.Run() },
		}
	}
	f := sim.NewFabric(2, rigLookahead, sim.FabricOptions{})
	eng := f.Shard(0).Engine()
	return linkRig{
		eng: eng, b: b, reqLat: rigLookahead,
		link: func() *link { return newLink(central{b}, inj, eng, f.Shard(0), f.Shard(1)) },
		run:  func() { f.Run() },
	}
}

var rigModes = []string{"single", "fabric"}

// eachRig runs body once per mode.
func eachRig(t *testing.T, spec faults.Spec, body func(t *testing.T, r linkRig)) {
	for _, mode := range rigModes {
		t.Run(mode, func(t *testing.T) { body(t, newRig(mode, spec)) })
	}
}

func TestFaultLinkOutageAndPartition(t *testing.T) {
	eachRig(t, faults.Spec{
		Outages:    []faults.Window{{Start: 10, End: 20}},
		Partitions: map[string][]faults.Window{"n0": {{Start: 30, End: 40}}},
	}, func(t *testing.T, r linkRig) {
		n0, n1 := r.link(), r.link()
		vec := map[iosched.AppID]float64{"a": 1}
		expect := func(what string, want error) func(broker.Response, error) {
			return func(_ broker.Response, err error) {
				if err != want {
					t.Errorf("%s: err = %v, want %v", what, err, want)
				}
			}
		}
		r.eng.Schedule(1, func() { n0.Exchange("n0", vec, expect("healthy exchange", nil)) })
		r.eng.Schedule(15, func() {
			n0.Exchange("n0", vec, expect("exchange during outage", broker.ErrUnavailable))
			n0.Register("n0", func(err error) {
				if err != broker.ErrUnavailable {
					t.Errorf("register during outage: err = %v, want ErrUnavailable", err)
				}
			})
		})
		r.eng.Schedule(35, func() {
			n0.Exchange("n0", vec, expect("exchange while partitioned", broker.ErrUnavailable))
			n1.Exchange("n1", vec, expect("unpartitioned peer", nil))
		})
		r.eng.Schedule(36, func() {})
		r.run()
	})
}

func TestFaultLinkRequestDropNeverReachesBroker(t *testing.T) {
	eachRig(t, faults.Spec{DropProb: 1}, func(t *testing.T, r linkRig) {
		r.b.Register("n0")
		var got error
		r.eng.Schedule(1, func() {
			r.link().Exchange("n0", map[iosched.AppID]float64{"a": 7}, func(_ broker.Response, err error) { got = err })
		})
		r.eng.Schedule(2, func() {})
		r.run()
		if got != broker.ErrLost {
			t.Fatalf("err = %v, want ErrLost", got)
		}
		if total := r.b.Total("a"); total != 0 {
			t.Errorf("dropped request still applied: Total(a) = %v", total)
		}
	})
}

func TestFaultLinkResponseDropAppliesReport(t *testing.T) {
	eachRig(t, faults.Spec{RespDropProb: 1}, func(t *testing.T, r linkRig) {
		r.b.Register("n0")
		var got error
		r.eng.Schedule(1, func() {
			r.link().Exchange("n0", map[iosched.AppID]float64{"a": 7}, func(_ broker.Response, err error) { got = err })
		})
		r.eng.Schedule(2, func() {})
		r.run()
		if got != broker.ErrLost {
			t.Fatalf("err = %v, want ErrLost", got)
		}
		// The loss is on the reply leg: the broker did see the report.
		// The client's idempotent cumulative vector makes the retry
		// harmless.
		if total := r.b.Total("a"); total != 7 {
			t.Errorf("Total(a) = %v, want 7 (uplink delivered)", total)
		}
	})
}

func TestFaultLinkDelayBounds(t *testing.T) {
	eachRig(t, faults.Spec{DelayProb: 1, DelayMin: 0.1, DelayMax: 0.2}, func(t *testing.T, r linkRig) {
		r.b.Register("n0")
		l := r.link()
		replies := 0
		var send func(i int)
		send = func(i int) {
			sent := r.eng.Now()
			l.Exchange("n0", map[iosched.AppID]float64{"a": float64(i)}, func(_ broker.Response, err error) {
				replies++
				if err != nil {
					t.Fatalf("exchange %d: %v", i, err)
				}
				const eps = 1e-9
				if d := r.eng.Now() - sent - r.reqLat; d < 0.1-eps || d > 0.2+eps {
					t.Fatalf("exchange %d: reply delay %v outside [0.1, 0.2]", i, d)
				}
				if i+1 < 64 {
					send(i + 1)
				}
			})
		}
		r.eng.Schedule(1, func() { send(0) })
		r.eng.Schedule(64, func() {})
		r.run()
		if replies != 64 {
			t.Errorf("replies = %d, want 64", replies)
		}
	})
}

// TestFaultLinkFatesIndependentOfInterleaving: a client's fates are a
// function of its own message sequence only — another client's traffic
// interleaved between its messages changes none of them.
func TestFaultLinkFatesIndependentOfInterleaving(t *testing.T) {
	spec := faults.Spec{Seed: 7, DropProb: 0.3, RespDropProb: 0.2, DelayProb: 0.5, DelayMax: 0.3}
	type outcome struct {
		Err error
		RTT float64
	}
	// n0 sends one exchange per second; when noisy, n1 sends one to
	// three of its own in between.
	run := func(mode string, noisy bool) []outcome {
		r := newRig(mode, spec)
		n0, n1 := r.link(), r.link()
		vec := map[iosched.AppID]float64{"a": 1}
		var got []outcome
		for i := 0; i < 32; i++ {
			at := float64(i + 1)
			r.eng.Schedule(at, func() {
				sent := r.eng.Now()
				n0.Exchange("n0", vec, func(_ broker.Response, err error) {
					got = append(got, outcome{err, r.eng.Now() - sent})
				})
			})
			for k := 0; noisy && k <= i%3; k++ {
				r.eng.Schedule(at-0.5+0.1*float64(k), func() {
					n1.Exchange("n1", vec, func(broker.Response, error) {})
				})
			}
		}
		r.eng.Schedule(34, func() {})
		r.run()
		return got
	}
	for _, mode := range rigModes {
		t.Run(mode, func(t *testing.T) {
			alone, mixed := run(mode, false), run(mode, true)
			if len(alone) != 32 {
				t.Fatalf("replies = %d, want 32", len(alone))
			}
			if !reflect.DeepEqual(alone, mixed) {
				t.Errorf("n0's fates moved with n1's traffic:\n alone=%v\n mixed=%v", alone, mixed)
			}
			// The spec must exercise loss and delay, or the comparison
			// proves little.
			var lost, delayed int
			for _, o := range alone {
				if o.Err == broker.ErrLost {
					lost++
				}
				if o.Err == nil && o.RTT > 2*rigLookahead+1e-9 {
					delayed++
				}
			}
			if lost == 0 || delayed == 0 {
				t.Errorf("spec exercised lost=%d delayed=%d; want both > 0", lost, delayed)
			}
		})
	}
}
