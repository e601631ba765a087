package topology

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"
)

// ScaleConfig parameterises GenerateScale, the planet-scale topology
// generator: R regions laid out on a ring, each with one hub data center
// and S edge sites, plus an optional set of core data centers grouped as
// one extra region. Link properties come in tiers — an intra-site fabric,
// fat short intra-region links, a hub↔hub backbone whose latency grows
// with ring distance, thin long-haul edge links, and fat core links. Edge
// sites carry simulated user populations; scale scenarios derive per-site
// source rates from them. The zero value is not valid; start from
// DefaultScaleConfig.
type ScaleConfig struct {
	Seed int64

	// Regions (R) and EdgePerRegion (S) shape the fabric: R·(S+1) sites
	// plus CoreDCs. CoreDCs > 0 adds one extra "core" region of global
	// data centers.
	Regions       int
	EdgePerRegion int
	CoreDCs       int

	EdgeSlotsMin, EdgeSlotsMax int
	HubSlots                   int
	CoreSlots                  int

	// UsersPerEdge bounds the simulated user population behind each edge
	// site (uniform).
	UsersPerEdgeMin, UsersPerEdgeMax int

	IntraSiteBW  Mbps
	IntraSiteLat time.Duration

	// Intra-region links (edge↔edge and edge↔hub within one region).
	RegionBWMin, RegionBWMax   Mbps
	RegionLatMin, RegionLatMax time.Duration

	// Inter-region links: latency interpolates between InterLatMin and
	// InterLatMax with the ring distance between the two regions (±10%
	// jitter); hub↔hub links use the backbone bandwidth tier, links
	// touching an edge site the thin long-haul tier.
	EdgeBWMin, EdgeBWMax     Mbps
	HubBWMin, HubBWMax       Mbps
	InterLatMin, InterLatMax time.Duration

	// Core links (anything ↔ a core data center).
	CoreBWMin, CoreBWMax   Mbps
	CoreLatMin, CoreLatMax time.Duration

	// AsymmetryMax scales reverse-direction bandwidth by U[1-a, 1+a].
	AsymmetryMax float64
}

// DefaultScaleConfig returns a realistic planet-scale profile for the
// given shape: 2–4 slot edge clusters with 2000–5000 users each behind
// 16-slot regional hubs, ~10–50 Mbps long-haul edge links, a 100–400 Mbps
// hub backbone, and ring-distance inter-region latency up to ~280 ms.
func DefaultScaleConfig(seed int64, regions, edgePerRegion int) ScaleConfig {
	return ScaleConfig{
		Seed:            seed,
		Regions:         regions,
		EdgePerRegion:   edgePerRegion,
		CoreDCs:         0,
		EdgeSlotsMin:    2,
		EdgeSlotsMax:    4,
		HubSlots:        16,
		CoreSlots:       32,
		UsersPerEdgeMin: 2000,
		UsersPerEdgeMax: 5000,
		IntraSiteBW:     10000,
		IntraSiteLat:    500 * time.Microsecond,
		RegionBWMin:     50,
		RegionBWMax:     200,
		RegionLatMin:    2 * time.Millisecond,
		RegionLatMax:    20 * time.Millisecond,
		EdgeBWMin:       10,
		EdgeBWMax:       50,
		HubBWMin:        100,
		HubBWMax:        400,
		InterLatMin:     40 * time.Millisecond,
		InterLatMax:     280 * time.Millisecond,
		CoreBWMin:       500,
		CoreBWMax:       2000,
		CoreLatMin:      15 * time.Millisecond,
		CoreLatMax:      120 * time.Millisecond,
		AsymmetryMax:    0.3,
	}
}

// validate rejects degenerate shapes. Unlike the constant-configured §8.2
// generator, scale configs are often computed (sweeps, CLI flags), so
// GenerateScale returns errors instead of panicking.
func (cfg *ScaleConfig) validate() error {
	if cfg.Regions < 1 {
		return fmt.Errorf("topology: scale config needs >= 1 region, have %d", cfg.Regions)
	}
	if cfg.EdgePerRegion < 0 {
		return fmt.Errorf("topology: negative edge sites per region (%d)", cfg.EdgePerRegion)
	}
	if cfg.CoreDCs < 0 {
		return fmt.Errorf("topology: negative core DC count (%d)", cfg.CoreDCs)
	}
	if n := cfg.Regions*(cfg.EdgePerRegion+1) + cfg.CoreDCs; n < 2 {
		return fmt.Errorf("topology: scale config yields %d site(s), need >= 2", n)
	}
	if cfg.EdgeSlotsMin < 0 || cfg.EdgeSlotsMax < cfg.EdgeSlotsMin {
		return fmt.Errorf("topology: edge slot bounds [%d,%d] invalid", cfg.EdgeSlotsMin, cfg.EdgeSlotsMax)
	}
	if cfg.HubSlots < 0 || cfg.CoreSlots < 0 {
		return fmt.Errorf("topology: negative hub/core slots (%d/%d)", cfg.HubSlots, cfg.CoreSlots)
	}
	if cfg.UsersPerEdgeMin < 0 || cfg.UsersPerEdgeMax < cfg.UsersPerEdgeMin {
		return fmt.Errorf("topology: users-per-edge bounds [%d,%d] invalid", cfg.UsersPerEdgeMin, cfg.UsersPerEdgeMax)
	}
	for _, b := range [][2]Mbps{
		{cfg.IntraSiteBW, cfg.IntraSiteBW},
		{cfg.RegionBWMin, cfg.RegionBWMax},
		{cfg.EdgeBWMin, cfg.EdgeBWMax},
		{cfg.HubBWMin, cfg.HubBWMax},
		{cfg.CoreBWMin, cfg.CoreBWMax},
	} {
		if b[0] <= 0 || b[1] < b[0] {
			return fmt.Errorf("topology: bandwidth tier [%v,%v] invalid", b[0], b[1])
		}
	}
	for _, l := range [][2]time.Duration{
		{cfg.IntraSiteLat, cfg.IntraSiteLat},
		{cfg.RegionLatMin, cfg.RegionLatMax},
		{cfg.InterLatMin, cfg.InterLatMax},
		{cfg.CoreLatMin, cfg.CoreLatMax},
	} {
		if l[0] < 0 || l[1] < l[0] {
			return fmt.Errorf("topology: latency tier [%v,%v] invalid", l[0], l[1])
		}
	}
	if cfg.AsymmetryMax < 0 || cfg.AsymmetryMax >= 1 {
		return fmt.Errorf("topology: asymmetry %v outside [0,1)", cfg.AsymmetryMax)
	}
	return nil
}

// GenerateScale builds a seeded region-structured planet-scale topology:
// a pure function of cfg, byte-identical for the same config. Site order
// is hub-first per region (so each region's lowest ID — its hierarchical
// representative — is the hub), regions in ring order, core DCs last as
// their own region.
func GenerateScale(cfg ScaleConfig) (*Topology, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	R, S := cfg.Regions, cfg.EdgePerRegion
	n := R*(S+1) + cfg.CoreDCs

	sites := make([]Site, 0, n)
	regionOf := make([]RegionID, 0, n)
	edge := make([]bool, n)
	intn := func(lo, hi int) int {
		if hi <= lo {
			return lo
		}
		return lo + rng.Intn(hi-lo+1)
	}
	for r := 0; r < R; r++ {
		sites = append(sites, Site{
			ID:    SiteID(len(sites)),
			Name:  "r" + strconv.Itoa(r) + "-hub",
			Kind:  DataCenter,
			Slots: cfg.HubSlots,
		})
		regionOf = append(regionOf, RegionID(r))
		for i := 0; i < S; i++ {
			edge[len(sites)] = true
			sites = append(sites, Site{
				ID:    SiteID(len(sites)),
				Name:  "r" + strconv.Itoa(r) + "-edge-" + strconv.Itoa(i+1),
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
			Name:  "core-" + strconv.Itoa(i+1),
			Kind:  DataCenter,
			Slots: cfg.CoreSlots,
		})
		regionOf = append(regionOf, RegionID(R))
	}

	lat := make([]time.Duration, n*n)
	bw := make([]Mbps, n*n)
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
	// Inter-region base latency by ring distance (hop ≤ R/2).
	hopLat := make([]time.Duration, R/2+1)
	for hop := range hopLat {
		hopLat[hop] = cfg.InterLatMin +
			time.Duration(float64(cfg.InterLatMax-cfg.InterLatMin)*float64(hop)/float64(maxHop))
	}
	// Every output depends on the draw order: pairs in (i, j>i) order,
	// each filling both directions.
	for i := 0; i < n; i++ {
		ri, iEdge := regionOf[i], edge[i]
		latRow, bwRow := lat[i*n:(i+1)*n], bw[i*n:(i+1)*n]
		latRow[i] = cfg.IntraSiteLat
		bwRow[i] = cfg.IntraSiteBW
		for j := i + 1; j < n; j++ {
			rj := regionOf[j]
			anyEdge := iEdge || edge[j]
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
				jitter := 0.9 + 0.2*rng.Float64()
				l = time.Duration(float64(hopLat[hop]) * jitter)
			}
			bwRow[j] = b
			latRow[j] = l
			// Reverse direction: correlated but asymmetric bandwidth;
			// propagation delay is symmetric.
			rb := Mbps(float64(b) * (1 + (rng.Float64()*2-1)*cfg.AsymmetryMax))
			if rb < 0.1 {
				rb = 0.1
			}
			bw[j*n+i] = rb
			lat[j*n+i] = l
		}
	}
	t, err := newFlat(sites, lat, bw)
	if err != nil {
		return nil, err
	}
	if err := t.partition(regionOf); err != nil {
		return nil, err
	}
	return t, nil
}

// ClusterRegions partitions an arbitrary topology into k latency
// clusters — the region structure the hierarchical planner needs when the
// topology does not carry its own (e.g. the §8.2 testbed in oracle
// cross-validation). Deterministic farthest-point seeding: seed 0 is site
// 0, each further seed maximizes the minimum symmetrized latency to the
// chosen seeds (ties to the lowest site ID); every site then joins its
// nearest seed. Regions are ordered by seed, members ascending.
func ClusterRegions(t *Topology, k int) [][]SiteID {
	n := t.N()
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	dist := func(a, b SiteID) float64 {
		d1, d2 := t.Latency(a, b).Seconds(), t.Latency(b, a).Seconds()
		if d2 > d1 {
			return d2
		}
		return d1
	}
	seeds := make([]SiteID, 1, k)
	seeds[0] = 0
	minD := make([]float64, n)
	assign := make([]int, n)
	for s := 0; s < n; s++ {
		minD[s] = dist(0, SiteID(s))
	}
	for len(seeds) < k {
		far, farD := SiteID(-1), -1.0
		for s := 0; s < n; s++ {
			if minD[s] > farD {
				far, farD = SiteID(s), minD[s]
			}
		}
		idx := len(seeds)
		seeds = append(seeds, far)
		for s := 0; s < n; s++ {
			if d := dist(far, SiteID(s)); d < minD[s] {
				minD[s] = d
				assign[s] = idx
			}
		}
	}
	// Re-assign from scratch so ties resolve to the lowest seed index
	// regardless of seeding order.
	for s := 0; s < n; s++ {
		best, bestD := 0, dist(seeds[0], SiteID(s))
		for i := 1; i < len(seeds); i++ {
			if d := dist(seeds[i], SiteID(s)); d < bestD {
				best, bestD = i, d
			}
		}
		assign[s] = best
	}
	regions := make([][]SiteID, len(seeds))
	for s := 0; s < n; s++ {
		regions[assign[s]] = append(regions[assign[s]], SiteID(s))
	}
	// Farthest-point seeding guarantees every seed is its own nearest
	// seed (distance 0), so no region is empty.
	return regions
}
