package broker

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ibis/internal/iosched"
)

// TestCheckConservationBothWays corrupts the totals in each direction —
// a reported app whose total lost its key, and a total no report backs
// — and requires each corruption to be reported.
func TestCheckConservationBothWays(t *testing.T) {
	setup := func() *Broker {
		b := New()
		b.Exchange("n1", map[iosched.AppID]float64{"A": 100, "B": 7})
		b.Exchange("n2", map[iosched.AppID]float64{"A": 40})
		if err := b.CheckConservation(); err != nil {
			t.Fatalf("clean broker: %v", err)
		}
		return b
	}

	dropped := setup()
	delete(dropped.totals, "A")
	if err := dropped.CheckConservation(); err == nil || !strings.Contains(err.Error(), "app A ") {
		t.Fatalf("dropped total key: err = %v, want a report for app A", err)
	}

	injected := setup()
	injected.totals["ghost"] = 5
	if err := injected.CheckConservation(); err == nil || !strings.Contains(err.Error(), "app ghost ") {
		t.Fatalf("injected total key: err = %v, want a report for app ghost", err)
	}
}

// brokerWithKnownApps returns a broker that knows n apps besides "x",
// each reported once by a bulk scheduler and each its own tenant.
func brokerWithKnownApps(n int) *Broker {
	b := New()
	vec := make(map[iosched.AppID]float64, n)
	for i := 0; i < n; i++ {
		vec[iosched.AppID(fmt.Sprintf("other-%05d", i))] = float64(i + 1)
	}
	b.Exchange("bulk", vec)
	b.Exchange("n1", map[iosched.AppID]float64{"x": 1})
	return b
}

// TestExchangeCostIndependentOfKnownApps pins the response bound of the
// paper's broker: an exchange that reports one app costs the same
// whether the broker knows 100 other apps or 10,000, measured as bytes
// allocated per exchange.
func TestExchangeCostIndependentOfKnownApps(t *testing.T) {
	const calls = 200
	perCall := func(known int) float64 {
		b := brokerWithKnownApps(known)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			b.Exchange("n1", map[iosched.AppID]float64{"x": float64(i + 2)})
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / calls
	}
	small, large := perCall(100), perCall(10000)
	if ratio := large / small; ratio >= 2 {
		t.Fatalf("bytes per exchange: %.0f with 10000 known apps vs %.0f with 100 (ratio %.2f, want < 2)", large, small, ratio)
	}
}

func BenchmarkBrokerExchange(b *testing.B) {
	for _, known := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("known=%d", known), func(b *testing.B) {
			br := brokerWithKnownApps(known)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				br.Exchange("n1", map[iosched.AppID]float64{"x": float64(i + 2)})
			}
		})
	}
}
