package broker

import (
	"math"
	"sort"
	"testing"

	"ibis/internal/iosched"
)

// fakeShares is a ShareView whose app→tenant bindings the fuzzer moves
// directly. Like shares.Tree it auto-binds an unknown app to its
// implicit tenant on first lookup, and every binding change — first
// binds included — bumps the epoch.
type fakeShares struct {
	tenant map[iosched.AppID]string
	epoch  uint64
}

func newFakeShares() *fakeShares {
	return &fakeShares{tenant: make(map[iosched.AppID]string)}
}

func (f *fakeShares) TenantOf(app iosched.AppID) string {
	t, ok := f.tenant[app]
	if !ok {
		t = implicitTenant(app)
		f.bind(app, t)
	}
	return t
}

func (f *fakeShares) Epoch() uint64 { return f.epoch }

func (f *fakeShares) bind(app iosched.AppID, tenant string) {
	f.tenant[app] = tenant
	f.epoch++
}

// shadowBroker is the reference model: the centralized broker's
// arithmetic before tenant member lists — totals[app] += cum - prev,
// and every tenant aggregate a pass over all known apps in sorted
// order. It keeps only the state the aggregates depend on.
type shadowBroker struct {
	reports     map[string]map[iosched.AppID]float64
	totals      map[iosched.AppID]float64
	retired     map[iosched.AppID]bool
	retireSnaps map[iosched.AppID]map[string]float64
	shares      ShareView
}

func newShadowBroker(shares ShareView) *shadowBroker {
	s := &shadowBroker{retired: make(map[iosched.AppID]bool), shares: shares}
	s.reset()
	return s
}

func (s *shadowBroker) reset() {
	s.reports = make(map[string]map[iosched.AppID]float64)
	s.totals = make(map[iosched.AppID]float64)
	s.retireSnaps = make(map[iosched.AppID]map[string]float64)
}

func (s *shadowBroker) tenantOf(app iosched.AppID) string {
	if s.shares != nil {
		return s.shares.TenantOf(app)
	}
	return implicitTenant(app)
}

func (s *shadowBroker) sortedApps() []iosched.AppID {
	apps := make([]iosched.AppID, 0, len(s.totals))
	for app := range s.totals {
		apps = append(apps, app)
	}
	sort.Slice(apps, func(i, j int) bool { return apps[i] < apps[j] })
	return apps
}

func (s *shadowBroker) exchange(sched string, vector map[iosched.AppID]float64) Response {
	prev := s.reports[sched]
	if prev == nil {
		prev = make(map[iosched.AppID]float64)
		s.reports[sched] = prev
	}
	resp := Response{Apps: make(map[iosched.AppID]float64), Tenants: make(map[string]float64)}
	for app, cum := range vector {
		if s.retired[app] {
			continue
		}
		s.totals[app] += cum - prev[app]
		prev[app] = cum
	}
	need := make(map[string]bool)
	for app := range vector {
		if !s.retired[app] {
			resp.Apps[app] = s.totals[app]
			need[s.tenantOf(app)] = true
		}
	}
	for _, app := range s.sortedApps() {
		if t := s.tenantOf(app); need[t] {
			resp.Tenants[t] += s.totals[app]
		}
	}
	if s.shares != nil {
		resp.Epoch = s.shares.Epoch()
	}
	return resp
}

func (s *shadowBroker) tenantTotals() map[string]float64 {
	out := make(map[string]float64)
	for _, app := range s.sortedApps() {
		out[s.tenantOf(app)] += s.totals[app]
	}
	return out
}

func (s *shadowBroker) unregister(sched string) {
	vec, ok := s.reports[sched]
	if !ok {
		return
	}
	delete(s.reports, sched)
	for app, cum := range vec {
		s.totals[app] -= cum
	}
	for app := range s.totals {
		backed := false
		for _, vec := range s.reports {
			if _, ok := vec[app]; ok {
				backed = true
			}
		}
		if !backed {
			delete(s.totals, app)
		}
	}
}

func (s *shadowBroker) retire(app iosched.AppID) {
	if s.retired[app] {
		return
	}
	s.retired[app] = true
	snap := make(map[string]float64)
	for sched, vec := range s.reports {
		if cum, ok := vec[app]; ok {
			snap[sched] = cum
			delete(vec, app)
		}
	}
	if len(snap) > 0 {
		s.retireSnaps[app] = snap
	}
	delete(s.totals, app)
}

func (s *shadowBroker) revive(app iosched.AppID) {
	if !s.retired[app] {
		return
	}
	delete(s.retired, app)
	total := 0.0
	snap := s.retireSnaps[app]
	scheds := make([]string, 0, len(snap))
	for sched := range snap {
		if _, ok := s.reports[sched]; ok {
			scheds = append(scheds, sched)
		}
	}
	sort.Strings(scheds)
	for _, sched := range scheds {
		s.reports[sched][app] = snap[sched]
		total += snap[sched]
	}
	delete(s.retireSnaps, app)
	if total > 0 {
		s.totals[app] = total
	}
}

func sameBits[K comparable](t *testing.T, what string, got, want map[K]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries %v, want %d %v", what, len(got), got, len(want), want)
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s[%v] = %v (present %v), want %v (bits %x vs %x)", what, k, g, ok, w, math.Float64bits(g), math.Float64bits(w))
		}
	}
}

// FuzzBrokerAggregates runs the broker and the shadow reference through
// the same decoded script of exchanges, retirements, revivals,
// unregistrations, broker restarts and tenant rebinds, and requires
// every response value, every tenant total and the share epoch to match
// bit for bit — the member lists must change the cost of an exchange,
// never its floats.
func FuzzBrokerAggregates(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 2, 0, 9, 1, 200, 0, 1, 1, 1, 41, 0, 2, 2, 2, 13, 3, 97, 0, 0, 1, 0, 250})
	f.Add([]byte{1, 0, 0, 2, 0, 77, 1, 5, 4, 1, 2, 0, 1, 3, 0, 0, 1, 0, 99, 5, 0, 6, 1, 0, 1, 2, 1, 40, 2, 33})
	f.Add([]byte{1, 0, 1, 3, 0, 7, 1, 8, 2, 9, 7, 1, 0, 0, 1, 1, 3, 2, 0, 3, 4, 5, 6, 0, 2, 0, 2, 11, 3, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		next := func() int {
			if i >= len(data) {
				return 0
			}
			i++
			return int(data[i-1])
		}
		apps := []iosched.AppID{"a0", "a1", "a2", "a3", "a4", "a5"}
		scheds := []string{"s0", "s1", "s2"}
		tenants := []string{"T0", "T1", ""}

		var realView, shadowView *fakeShares
		b := New()
		var ref *shadowBroker
		if next()%2 == 1 {
			realView, shadowView = newFakeShares(), newFakeShares()
			b.SetShares(realView)
			ref = newShadowBroker(shadowView)
		} else {
			ref = newShadowBroker(nil)
		}
		// cum is each scheduler's cumulative service; sevenths make the
		// float rounding of the delta arithmetic observable.
		cum := make(map[string]map[iosched.AppID]float64)
		for _, s := range scheds {
			cum[s] = make(map[iosched.AppID]float64)
		}

		for step := 0; i < len(data) && step < 256; step++ {
			switch op := next() % 8; op {
			case 0, 1, 2:
				sched := scheds[next()%len(scheds)]
				vec := make(map[iosched.AppID]float64)
				for n := next()%4 + 1; n > 0; n-- {
					app := apps[next()%len(apps)]
					cum[sched][app] += float64(next()) / 7
					vec[app] = cum[sched][app]
				}
				got := b.Exchange(sched, vec)
				want := ref.exchange(sched, vec)
				sameBits(t, "Apps", got.Apps, want.Apps)
				sameBits(t, "Tenants", got.Tenants, want.Tenants)
				if got.Epoch != want.Epoch {
					t.Fatalf("Epoch = %d, want %d", got.Epoch, want.Epoch)
				}
			case 3:
				app := apps[next()%len(apps)]
				b.Retire(app)
				ref.retire(app)
			case 4:
				app := apps[next()%len(apps)]
				b.Revive(app)
				ref.revive(app)
			case 5:
				sched := scheds[next()%len(scheds)]
				b.Unregister(sched)
				ref.unregister(sched)
				// A dead scheduler's successor starts from zero.
				cum[sched] = make(map[iosched.AppID]float64)
			case 6:
				b.ResetReports()
				ref.reset()
			case 7:
				app, tenant := apps[next()%len(apps)], tenants[next()%len(tenants)]
				if realView != nil {
					if tenant == "" {
						tenant = implicitTenant(app)
					}
					realView.bind(app, tenant)
					shadowView.bind(app, tenant)
				}
			}
			sameBits(t, "TenantTotals", b.TenantTotals(), ref.tenantTotals())
			if err := b.CheckConservation(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
