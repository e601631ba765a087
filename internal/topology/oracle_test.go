package topology

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// refTopology is the output of the reference generators below: sites,
// nested link matrices and the region assignment (nil when unregioned).
type refTopology struct {
	sites    []Site
	lat      [][]time.Duration
	bw       [][]Mbps
	regionOf []RegionID
}

func newRefMatrices(n int) ([][]time.Duration, [][]Mbps) {
	lat := make([][]time.Duration, n)
	bw := make([][]Mbps, n)
	for i := range lat {
		lat[i] = make([]time.Duration, n)
		bw[i] = make([]Mbps, n)
	}
	return lat, bw
}

// refGenerateScale is the nested-matrix GenerateScale that the flat
// generator replaced, kept as the exactness oracle: same sites, same RNG
// draw order, per-pair expressions written out in full.
func refGenerateScale(cfg ScaleConfig) refTopology {
	rng := rand.New(rand.NewSource(cfg.Seed))
	R, S := cfg.Regions, cfg.EdgePerRegion
	n := R*(S+1) + cfg.CoreDCs

	sites := make([]Site, 0, n)
	regionOf := make([]RegionID, 0, n)
	intn := func(lo, hi int) int {
		if hi <= lo {
			return lo
		}
		return lo + rng.Intn(hi-lo+1)
	}
	for r := 0; r < R; r++ {
		sites = append(sites, Site{
			ID:    SiteID(len(sites)),
			Name:  fmt.Sprintf("r%d-hub", r),
			Kind:  DataCenter,
			Slots: cfg.HubSlots,
		})
		regionOf = append(regionOf, RegionID(r))
		for i := 0; i < S; i++ {
			sites = append(sites, Site{
				ID:    SiteID(len(sites)),
				Name:  fmt.Sprintf("r%d-edge-%d", r, i+1),
				Kind:  Edge,
				Slots: intn(cfg.EdgeSlotsMin, cfg.EdgeSlotsMax),
				Users: intn(cfg.UsersPerEdgeMin, cfg.UsersPerEdgeMax),
			})
			regionOf = append(regionOf, RegionID(r))
		}
	}
	for i := 0; i < cfg.CoreDCs; i++ {
		sites = append(sites, Site{
			ID:    SiteID(len(sites)),
			Name:  fmt.Sprintf("core-%d", i+1),
			Kind:  DataCenter,
			Slots: cfg.CoreSlots,
		})
		regionOf = append(regionOf, RegionID(R))
	}

	lat, bw := newRefMatrices(n)
	uniformDur := func(lo, hi time.Duration) time.Duration {
		if hi <= lo {
			return lo
		}
		return lo + time.Duration(rng.Int63n(int64(hi-lo)))
	}
	uniformBW := func(lo, hi Mbps) Mbps {
		if hi <= lo {
			return lo
		}
		return lo + Mbps(rng.Float64())*(hi-lo)
	}
	coreRegion := RegionID(-1)
	if cfg.CoreDCs > 0 {
		coreRegion = RegionID(R)
	}
	maxHop := R / 2
	if maxHop < 1 {
		maxHop = 1
	}
	for i := 0; i < n; i++ {
		lat[i][i] = cfg.IntraSiteLat
		bw[i][i] = cfg.IntraSiteBW
		for j := i + 1; j < n; j++ {
			ri, rj := regionOf[i], regionOf[j]
			anyEdge := sites[i].Kind == Edge || sites[j].Kind == Edge
			var b Mbps
			var l time.Duration
			switch {
			case ri == rj:
				b = uniformBW(cfg.RegionBWMin, cfg.RegionBWMax)
				l = uniformDur(cfg.RegionLatMin, cfg.RegionLatMax)
			case ri == coreRegion || rj == coreRegion:
				if anyEdge {
					b = uniformBW(cfg.EdgeBWMin, cfg.EdgeBWMax)
				} else {
					b = uniformBW(cfg.CoreBWMin, cfg.CoreBWMax)
				}
				l = uniformDur(cfg.CoreLatMin, cfg.CoreLatMax)
			default:
				if anyEdge {
					b = uniformBW(cfg.EdgeBWMin, cfg.EdgeBWMax)
				} else {
					b = uniformBW(cfg.HubBWMin, cfg.HubBWMax)
				}
				hop := int(ri) - int(rj)
				if hop < 0 {
					hop = -hop
				}
				if wrap := R - hop; wrap < hop {
					hop = wrap
				}
				base := cfg.InterLatMin +
					time.Duration(float64(cfg.InterLatMax-cfg.InterLatMin)*float64(hop)/float64(maxHop))
				jitter := 0.9 + 0.2*rng.Float64()
				l = time.Duration(float64(base) * jitter)
			}
			bw[i][j] = b
			lat[i][j] = l
			rb := Mbps(float64(b) * (1 + (rng.Float64()*2-1)*cfg.AsymmetryMax))
			if rb < 0.1 {
				rb = 0.1
			}
			bw[j][i] = rb
			lat[j][i] = l
		}
	}
	return refTopology{sites: sites, lat: lat, bw: bw, regionOf: regionOf}
}

// refGenerateWith is the nested-matrix GenerateWith that the flat
// generator replaced, kept as the exactness oracle for the testbed.
func refGenerateWith(rng *rand.Rand, cfg GenConfig) refTopology {
	n := cfg.EdgeSites + cfg.DCSites
	sites := make([]Site, 0, n)
	for i := 0; i < cfg.DCSites; i++ {
		name := fmt.Sprintf("dc-%d", i+1)
		if i < len(cfg.dcNamesSource) {
			name = cfg.dcNamesSource[i]
		}
		sites = append(sites, Site{ID: SiteID(len(sites)), Name: name, Kind: DataCenter, Slots: cfg.DCSlots})
	}
	for i := 0; i < cfg.EdgeSites; i++ {
		slots := cfg.EdgeSlotsMin
		if cfg.EdgeSlotsMax > cfg.EdgeSlotsMin {
			slots += rng.Intn(cfg.EdgeSlotsMax - cfg.EdgeSlotsMin + 1)
		}
		sites = append(sites, Site{ID: SiteID(len(sites)), Name: fmt.Sprintf("edge-%d", i+1), Kind: Edge, Slots: slots})
	}

	lat, bw := newRefMatrices(n)
	uniformDur := func(lo, hi time.Duration) time.Duration {
		if hi <= lo {
			return lo
		}
		return lo + time.Duration(rng.Int63n(int64(hi-lo)))
	}
	uniformBW := func(lo, hi Mbps) Mbps {
		if hi <= lo {
			return lo
		}
		return lo + Mbps(rng.Float64())*(hi-lo)
	}
	asym := func() float64 {
		return 1 + (rng.Float64()*2-1)*cfg.AsymmetryMax
	}
	for i := 0; i < n; i++ {
		lat[i][i] = cfg.IntraSiteLat
		bw[i][i] = cfg.IntraSiteBW
		for j := i + 1; j < n; j++ {
			dcPair := sites[i].Kind == DataCenter && sites[j].Kind == DataCenter
			var b Mbps
			var l time.Duration
			if dcPair {
				b = uniformBW(cfg.DCBWMin, cfg.DCBWMax)
				l = uniformDur(cfg.DCLatMin, cfg.DCLatMax)
			} else {
				b = uniformBW(cfg.EdgeBWMin, cfg.EdgeBWMax)
				l = uniformDur(cfg.EdgeLatMin, cfg.EdgeLatMax)
			}
			bw[i][j] = b
			lat[i][j] = l
			rb := Mbps(float64(b) * asym())
			if rb < 0.1 {
				rb = 0.1
			}
			bw[j][i] = rb
			lat[j][i] = l
		}
	}
	return refTopology{sites: sites, lat: lat, bw: bw}
}

// assertMatchesRef compares every link pair, the site list and the
// region partition of top against the reference output.
func assertMatchesRef(t *testing.T, name string, top *Topology, ref refTopology) {
	t.Helper()
	if !reflect.DeepEqual(top.Sites(), ref.sites) {
		t.Fatalf("%s: Sites() differ from the reference", name)
	}
	n := len(ref.sites)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			from, to := SiteID(i), SiteID(j)
			if got, want := top.Latency(from, to), ref.lat[i][j]; got != want {
				t.Fatalf("%s: Latency(%d, %d) = %v, reference %v", name, i, j, got, want)
			}
			if got, want := top.BaseBandwidth(from, to), ref.bw[i][j]; got != want {
				t.Fatalf("%s: BaseBandwidth(%d, %d) = %v, reference %v", name, i, j, got, want)
			}
		}
	}
	var wantRegions [][]SiteID
	if ref.regionOf != nil {
		for i, r := range ref.regionOf {
			for int(r) >= len(wantRegions) {
				wantRegions = append(wantRegions, nil)
			}
			wantRegions[r] = append(wantRegions[r], SiteID(i))
		}
	}
	if got := top.RegionSites(); !reflect.DeepEqual(got, wantRegions) {
		t.Fatalf("%s: RegionSites() = %v, reference %v", name, got, wantRegions)
	}
}

func TestGenerateScaleMatchesReference(t *testing.T) {
	withCores := DefaultScaleConfig(4, 8, 4)
	withCores.CoreDCs = 3
	oneRegion := DefaultScaleConfig(5, 1, 6)
	oneRegion.CoreDCs = 2
	symmetric := DefaultScaleConfig(8, 6, 3)
	symmetric.AsymmetryMax = 0
	collapsed := DefaultScaleConfig(9, 5, 3)
	collapsed.CoreDCs = 2
	collapsed.EdgeSlotsMax = collapsed.EdgeSlotsMin
	collapsed.UsersPerEdgeMax = collapsed.UsersPerEdgeMin
	collapsed.RegionBWMax, collapsed.RegionLatMax = collapsed.RegionBWMin, collapsed.RegionLatMin
	collapsed.EdgeBWMax = collapsed.EdgeBWMin
	collapsed.HubBWMax = collapsed.HubBWMin
	collapsed.InterLatMax = collapsed.InterLatMin
	collapsed.CoreBWMax, collapsed.CoreLatMax = collapsed.CoreBWMin, collapsed.CoreLatMin

	for _, tc := range []struct {
		name string
		cfg  ScaleConfig
	}{
		{"planet 16x15", DefaultScaleConfig(1, 16, 15)},
		{"planet 50x19", DefaultScaleConfig(1, 50, 19)},
		{"core DCs", withCores},
		{"one region", oneRegion},
		{"two regions", DefaultScaleConfig(6, 2, 5)},
		{"hubs only", DefaultScaleConfig(7, 9, 0)},
		{"no asymmetry", symmetric},
		{"collapsed tiers", collapsed},
	} {
		top, err := GenerateScale(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		assertMatchesRef(t, tc.name, top, refGenerateScale(tc.cfg))
	}
}

func TestGenerateMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		cfg := DefaultGenConfig(seed)
		ref := refGenerateWith(rand.New(rand.NewSource(seed)), cfg)
		assertMatchesRef(t, fmt.Sprintf("testbed seed %d", seed), Generate(cfg), ref)
	}
}
