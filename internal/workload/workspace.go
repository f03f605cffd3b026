package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// WorkspaceConfig parameterizes the workspace scenario: many tenants, each
// owning several near-identical development workspaces, modeled on the helix
// ZFS dedup design (SNIPPETS.md snippet 1: 19M files, node_modules package
// copies at 16–32x refcounts, 11.5x effective savings).
//
// Each workspace is a directory tree of (a) dependency packages installed
// from a shared registry — identical bytes wherever the same package appears,
// across workspaces *and* tenants, which is where the cross-tenant global
// dedup comes from — and (b) per-workspace source files, unique to the
// workspace and edited over time. Package popularity is heavily skewed, so a
// handful of packages recur in nearly every workspace (the 16–32x refcounts)
// while the registry tail appears once or twice.
type WorkspaceConfig struct {
	Seed                 int64
	Tenants              int     // default 4
	WorkspacesPerTenant  int     // default 6
	PackagePool          int     // distinct packages in the registry (default 64)
	PackagesPerWorkspace int     // dependencies installed per workspace (default 12)
	MeanPackageSize      int64   // default 192 KiB
	SrcFilesPerWorkspace int     // default 6
	MeanSrcFileSize      int64   // default 24 KiB
	EditFraction         float64 // fraction of workspaces whose sources change per round (default 0.35)
	// UpgradeFraction is the per-round probability that one workspace bumps
	// one dependency to the next package version (re-keying that package
	// copy only). Default 0.1.
	UpgradeFraction float64
}

// DefaultWorkspaceConfig returns the standard workspace profile.
func DefaultWorkspaceConfig(seed int64) WorkspaceConfig {
	return WorkspaceConfig{
		Seed:                 seed,
		Tenants:              4,
		WorkspacesPerTenant:  6,
		PackagePool:          64,
		PackagesPerWorkspace: 12,
		MeanPackageSize:      192 << 10,
		SrcFilesPerWorkspace: 6,
		MeanSrcFileSize:      24 << 10,
		EditFraction:         0.35,
		UpgradeFraction:      0.1,
	}
}

func (c WorkspaceConfig) withDefaults() WorkspaceConfig {
	d := DefaultWorkspaceConfig(c.Seed)
	if c.Tenants <= 0 {
		c.Tenants = d.Tenants
	}
	if c.WorkspacesPerTenant <= 0 {
		c.WorkspacesPerTenant = d.WorkspacesPerTenant
	}
	if c.PackagePool <= 0 {
		c.PackagePool = d.PackagePool
	}
	if c.PackagesPerWorkspace <= 0 {
		c.PackagesPerWorkspace = d.PackagesPerWorkspace
	}
	if c.MeanPackageSize <= 0 {
		c.MeanPackageSize = d.MeanPackageSize
	}
	if c.SrcFilesPerWorkspace <= 0 {
		c.SrcFilesPerWorkspace = d.SrcFilesPerWorkspace
	}
	if c.MeanSrcFileSize <= 0 {
		c.MeanSrcFileSize = d.MeanSrcFileSize
	}
	if c.EditFraction == 0 {
		c.EditFraction = d.EditFraction
	}
	if c.UpgradeFraction == 0 {
		c.UpgradeFraction = d.UpgradeFraction
	}
	return c
}

func (c WorkspaceConfig) validate() error {
	if c.EditFraction < 0 || c.EditFraction > 1 || c.UpgradeFraction < 0 || c.UpgradeFraction > 1 {
		return fmt.Errorf("workload: workspace fractions out of [0,1] in %+v", c)
	}
	return nil
}

// pkgID/pkgSeed/pkgSize define the registry. A package's identity, bytes and
// size depend only on (cfg.Seed, index, version): two workspaces installing
// package 7 v0 produce bit-identical file bytes, headers included, no matter
// which tenant owns them — the property the dedup engine converts into
// refcounts.
func pkgID(p, version int) uint64 { return 0x706B<<40 | uint64(version)<<24 | uint64(p) }

func pkgSeed(seed int64, p, version int) int64 {
	return DeriveSeed(seed, "ws-pkg", int64(version)<<32|int64(p))
}

func pkgSize(seed int64, p int, mean int64) int64 {
	rng := rand.New(rand.NewSource(DeriveSeed(seed, "ws-pkg-size", int64(p))))
	return mean/4 + rng.Int63n(mean*9/4) + 1
}

// wsDep is one installed dependency of a workspace.
type wsDep struct {
	pkg     int
	version int
}

// wsSource is one per-workspace source file; edits bump version.
type wsSource struct {
	seed    int64
	size    int64
	version int64
}

// wsTree is one workspace's state.
type wsTree struct {
	deps []wsDep
	src  []wsSource
}

// Workspace is the workspace Schedule: tenants take turns round-robin; each
// Next() streams one tenant's full workspace tree at its current state,
// mutating the tenant's workspaces first on rounds after the initial one.
type Workspace struct {
	cfg      WorkspaceConfig
	tenants  [][]wsTree
	rounds   []int   // per-tenant round counter
	pkgSizes []int64 // pkgSize of every registry package, drawn once
	next     int
	count    int
}

// NewWorkspace builds the schedule. Workspace w of tenant t is derived from
// (Seed, t, w) alone, so growing Tenants or WorkspacesPerTenant leaves every
// existing tree byte-identical.
func NewWorkspace(cfg WorkspaceConfig) (*Workspace, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ws := &Workspace{cfg: cfg, rounds: make([]int, cfg.Tenants), pkgSizes: make([]int64, cfg.PackagePool)}
	// A size depends on the package alone, not its version; drawing each
	// once spares every upload a freshly seeded source per dependency.
	for p := range ws.pkgSizes {
		ws.pkgSizes[p] = pkgSize(cfg.Seed, p, cfg.MeanPackageSize)
	}
	for t := 0; t < cfg.Tenants; t++ {
		trees := make([]wsTree, cfg.WorkspacesPerTenant)
		for w := range trees {
			trees[w] = newTree(cfg, t, w)
		}
		ws.tenants = append(ws.tenants, trees)
	}
	return ws, nil
}

// newTree draws workspace (t, w): dependencies from the registry with a
// power-law popularity skew, plus its unique source files.
func newTree(cfg WorkspaceConfig, t, w int) wsTree {
	rng := rand.New(rand.NewSource(DeriveSeed(cfg.Seed, "ws-tree", int64(t)<<20|int64(w))))
	seen := make(map[int]bool)
	var tree wsTree
	for len(tree.deps) < cfg.PackagesPerWorkspace && len(seen) < cfg.PackagePool {
		// u^3 concentrates picks at low indices: the head of the registry
		// appears in nearly every workspace, the tail rarely.
		u := rng.Float64()
		p := int(math.Pow(u, 3) * float64(cfg.PackagePool))
		if p >= cfg.PackagePool {
			p = cfg.PackagePool - 1
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		tree.deps = append(tree.deps, wsDep{pkg: p})
	}
	for i := 0; i < cfg.SrcFilesPerWorkspace; i++ {
		tree.src = append(tree.src, wsSource{
			seed: DeriveSeed(cfg.Seed, "ws-src", int64(t)<<40|int64(w)<<20|int64(i)),
			size: cfg.MeanSrcFileSize/4 + rng.Int63n(cfg.MeanSrcFileSize*9/4) + 1,
		})
	}
	return tree
}

// Tenants returns the tenant count.
func (s *Workspace) Tenants() int { return len(s.tenants) }

// mutate advances tenant t by one round of churn. Decisions derive from
// (Seed, t, round), independent of other tenants.
func (s *Workspace) mutate(t int) {
	cfg := s.cfg
	rng := rand.New(rand.NewSource(DeriveSeed(cfg.Seed, "ws-round", int64(t)<<24|int64(s.rounds[t]))))
	for w := range s.tenants[t] {
		tree := &s.tenants[t][w]
		if rng.Float64() < cfg.EditFraction && len(tree.src) > 0 {
			tree.src[rng.Intn(len(tree.src))].version++
		}
		if rng.Float64() < cfg.UpgradeFraction && len(tree.deps) > 0 {
			tree.deps[rng.Intn(len(tree.deps))].version++
		}
	}
}

// files flattens tenant t's workspaces into the framed file sequence.
func (s *Workspace) files(t int) []detFile {
	cfg := s.cfg
	var out []detFile
	for w := range s.tenants[t] {
		tree := &s.tenants[t][w]
		for _, d := range tree.deps {
			out = append(out, detFile{
				id:   pkgID(d.pkg, d.version),
				seed: pkgSeed(cfg.Seed, d.pkg, d.version),
				size: s.pkgSizes[d.pkg],
			})
		}
		for i, f := range tree.src {
			out = append(out, detFile{
				id:      uint64(t)<<40 | uint64(w)<<20 | uint64(i),
				seed:    f.seed,
				version: f.version,
				size:    f.size,
			})
		}
	}
	return out
}

// Next implements Schedule.
func (s *Workspace) Next() Backup {
	t := s.next
	if s.count >= len(s.tenants) { // every tenant's first backup is unmutated
		s.mutate(t)
		s.rounds[t]++
	}
	files := s.files(t)
	b := Backup{
		Label:  fmt.Sprintf("t%d/r%02d", t, s.rounds[t]),
		User:   t,
		Gen:    s.rounds[t],
		Size:   detStreamSize(files),
		Stream: newDetStream(files),
	}
	s.next = (s.next + 1) % len(s.tenants)
	s.count++
	return b
}

// NextRound returns one backup from every tenant, in tenant order.
func (s *Workspace) NextRound() []Backup {
	round := make([]Backup, len(s.tenants))
	for i := range round {
		round[i] = s.Next()
	}
	return round
}

var _ Schedule = (*Workspace)(nil)
