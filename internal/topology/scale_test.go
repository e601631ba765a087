package topology

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func scaleShape(t *testing.T, seed int64, regions, edges int) *Topology {
	t.Helper()
	top, err := GenerateScale(DefaultScaleConfig(seed, regions, edges))
	if err != nil {
		t.Fatalf("GenerateScale(%d regions × %d edges): %v", regions, edges, err)
	}
	return top
}

func TestGenerateScaleDeterministic(t *testing.T) {
	// Same seed → byte-identical topology at 100 sites (10×9+hub) and
	// 1000 sites (50×19+hub).
	for _, shape := range []struct{ regions, edges, sites int }{
		{10, 9, 100},
		{50, 19, 1000},
	} {
		a := scaleShape(t, 42, shape.regions, shape.edges)
		b := scaleShape(t, 42, shape.regions, shape.edges)
		if a.N() != shape.sites {
			t.Fatalf("N = %d, want %d", a.N(), shape.sites)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("same-seed %d-site topologies differ", shape.sites)
		}
		c := scaleShape(t, 43, shape.regions, shape.edges)
		if reflect.DeepEqual(a, c) {
			t.Fatalf("different-seed %d-site topologies identical", shape.sites)
		}
	}
}

func TestGenerateScaleRegionStructure(t *testing.T) {
	cfg := DefaultScaleConfig(7, 12, 7)
	cfg.CoreDCs = 3
	top, err := GenerateScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := top.N(), 12*8+3; got != want {
		t.Fatalf("N = %d, want %d", got, want)
	}
	if got, want := top.NumRegions(), 13; got != want {
		t.Fatalf("NumRegions = %d, want %d (12 + core)", got, want)
	}
	regions := top.RegionSites()
	for r, members := range regions {
		for _, s := range members {
			if top.RegionOf(s) != RegionID(r) {
				t.Fatalf("site %d listed in region %d but RegionOf = %d", s, r, top.RegionOf(s))
			}
		}
	}
	// Each geographic region leads with its hub (lowest ID, a DC); the
	// last region is the core.
	for r := 0; r < 12; r++ {
		hub := top.Site(regions[r][0])
		if hub.Kind != DataCenter || !strings.HasSuffix(hub.Name, "-hub") {
			t.Fatalf("region %d representative = %+v, want hub DC", r, hub)
		}
		if len(regions[r]) != 8 {
			t.Fatalf("region %d has %d sites, want 8", r, len(regions[r]))
		}
	}
	if len(regions[12]) != 3 {
		t.Fatalf("core region has %d sites, want 3", len(regions[12]))
	}
	for _, s := range regions[12] {
		if top.Site(s).Kind != DataCenter || top.Site(s).Users != 0 {
			t.Fatalf("core site %+v, want user-free DC", top.Site(s))
		}
	}
	// Edge sites carry user populations within the configured bounds.
	users := 0
	for _, s := range top.Sites() {
		if s.Kind == Edge {
			if s.Users < cfg.UsersPerEdgeMin || s.Users > cfg.UsersPerEdgeMax {
				t.Fatalf("edge site %s has %d users, want [%d,%d]", s.Name, s.Users, cfg.UsersPerEdgeMin, cfg.UsersPerEdgeMax)
			}
			users += s.Users
		}
	}
	if top.TotalUsers() != users {
		t.Fatalf("TotalUsers = %d, want %d", top.TotalUsers(), users)
	}
}

func TestGenerateScaleMillionsOfUsers(t *testing.T) {
	// The 1000-site default shape must simulate millions of users.
	top := scaleShape(t, 1, 50, 19)
	if top.TotalUsers() < 2_000_000 {
		t.Fatalf("TotalUsers = %d, want >= 2M", top.TotalUsers())
	}
}

func TestGenerateScaleLatencyTiers(t *testing.T) {
	cfg := DefaultScaleConfig(3, 8, 4)
	top, err := GenerateScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := top.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a, b := SiteID(i), SiteID(j)
			l := top.Latency(a, b)
			if top.Latency(b, a) != l {
				t.Fatalf("latency asymmetric between %d and %d", i, j)
			}
			if bw := top.BaseBandwidth(a, b); bw <= 0 {
				t.Fatalf("non-positive bandwidth %v on %d->%d", bw, i, j)
			}
			switch {
			case i == j:
				if l != cfg.IntraSiteLat {
					t.Fatalf("intra-site latency %v, want %v", l, cfg.IntraSiteLat)
				}
			case top.RegionOf(a) == top.RegionOf(b):
				if l < cfg.RegionLatMin || l > cfg.RegionLatMax {
					t.Fatalf("intra-region latency %v outside [%v,%v]", l, cfg.RegionLatMin, cfg.RegionLatMax)
				}
			default:
				// Inter-region: ring-distance interpolation with ±10% jitter.
				lo := time.Duration(float64(cfg.InterLatMin) * 0.9)
				hi := time.Duration(float64(cfg.InterLatMax) * 1.1)
				if l < lo || l > hi {
					t.Fatalf("inter-region latency %v outside [%v,%v]", l, lo, hi)
				}
			}
		}
	}
}

func TestGenerateScaleDegenerateShapes(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ScaleConfig)
	}{
		{"zero regions", func(c *ScaleConfig) { c.Regions = 0 }},
		{"negative edges", func(c *ScaleConfig) { c.EdgePerRegion = -1 }},
		{"negative cores", func(c *ScaleConfig) { c.CoreDCs = -2 }},
		{"single site", func(c *ScaleConfig) { c.Regions, c.EdgePerRegion = 1, 0 }},
		{"inverted slot bounds", func(c *ScaleConfig) { c.EdgeSlotsMin, c.EdgeSlotsMax = 4, 2 }},
		{"negative hub slots", func(c *ScaleConfig) { c.HubSlots = -1 }},
		{"inverted user bounds", func(c *ScaleConfig) { c.UsersPerEdgeMin, c.UsersPerEdgeMax = 5000, 2000 }},
		{"zero bandwidth tier", func(c *ScaleConfig) { c.EdgeBWMin, c.EdgeBWMax = 0, 0 }},
		{"inverted bandwidth tier", func(c *ScaleConfig) { c.HubBWMin, c.HubBWMax = 400, 100 }},
		{"negative latency", func(c *ScaleConfig) { c.InterLatMin = -time.Millisecond }},
		{"inverted latency tier", func(c *ScaleConfig) { c.RegionLatMin, c.RegionLatMax = 20*time.Millisecond, 2*time.Millisecond }},
		{"asymmetry >= 1", func(c *ScaleConfig) { c.AsymmetryMax = 1 }},
	}
	for _, tc := range cases {
		cfg := DefaultScaleConfig(1, 4, 3)
		tc.mutate(&cfg)
		if _, err := GenerateScale(cfg); err == nil {
			t.Errorf("%s: want validation error, got nil", tc.name)
		}
	}
}

func TestNewRegionedValidation(t *testing.T) {
	base := Generate(DefaultGenConfig(1))
	sites := base.Sites()
	n := len(sites)
	lat, bw := denseMatrices(base)
	mk := func(regionOf []RegionID) error {
		_, err := NewRegioned(sites, lat, bw, regionOf)
		return err
	}
	if err := mk(make([]RegionID, n-1)); err == nil {
		t.Error("length mismatch accepted")
	}
	bad := make([]RegionID, n)
	bad[3] = -1
	if err := mk(bad); err == nil {
		t.Error("negative region ID accepted")
	}
	sparse := make([]RegionID, n)
	sparse[0] = 2 // region 1 never used -> not dense
	for i := 1; i < n; i++ {
		sparse[i] = 0
	}
	if err := mk(sparse); err == nil {
		t.Error("sparse region IDs accepted")
	}
	ok := make([]RegionID, n)
	for i := range ok {
		ok[i] = RegionID(i % 4)
	}
	top, err := NewRegioned(sites, lat, bw, ok)
	if err != nil {
		t.Fatalf("valid regioned topology rejected: %v", err)
	}
	if top.NumRegions() != 4 {
		t.Fatalf("NumRegions = %d, want 4", top.NumRegions())
	}
}

// TestGenerateScaleAllocs pins the 1000-site generator to two flat link
// matrices: at most 2 allocations per site and 16·n² + 200·n bytes. Per-row
// matrix storage (two allocations per site on top of the site names)
// fails it.
func TestGenerateScaleAllocs(t *testing.T) {
	cfg := DefaultScaleConfig(1, 50, 19)
	n := cfg.Regions * (cfg.EdgePerRegion + 1)
	generate := func() {
		if _, err := GenerateScale(cfg); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(2, generate)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	generate()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	if perSite := allocs / float64(n); perSite > 2 {
		t.Errorf("GenerateScale(%d sites) makes %.0f allocations (%.2f per site), want <= 2 per site", n, allocs, perSite)
	}
	if limit := uint64(16*n*n + 200*n); bytes > limit {
		t.Errorf("GenerateScale(%d sites) allocates %d B, want <= %d", n, bytes, limit)
	}
}

func BenchmarkGenerateScale1000(b *testing.B) {
	cfg := DefaultScaleConfig(1, 50, 19)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateScale(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestClusterRegions(t *testing.T) {
	top := scaleShape(t, 5, 8, 5)
	k := 8
	regions := ClusterRegions(top, k)
	if len(regions) != k {
		t.Fatalf("got %d clusters, want %d", len(regions), k)
	}
	seen := make(map[SiteID]bool)
	for r, members := range regions {
		if len(members) == 0 {
			t.Fatalf("cluster %d empty", r)
		}
		for i, s := range members {
			if seen[s] {
				t.Fatalf("site %d in two clusters", s)
			}
			seen[s] = true
			if i > 0 && members[i-1] >= s {
				t.Fatalf("cluster %d members not ascending: %v", r, members)
			}
		}
	}
	if len(seen) != top.N() {
		t.Fatalf("clusters cover %d sites, want %d", len(seen), top.N())
	}
	again := ClusterRegions(top, k)
	if !reflect.DeepEqual(regions, again) {
		t.Fatal("ClusterRegions not deterministic")
	}
	// Degenerate k values clamp.
	if got := ClusterRegions(top, 0); len(got) != 1 {
		t.Fatalf("k=0: got %d clusters, want 1", len(got))
	}
	if got := ClusterRegions(top, top.N()+5); len(got) != top.N() {
		t.Fatalf("k>n: got %d clusters, want %d", len(got), top.N())
	}
}
