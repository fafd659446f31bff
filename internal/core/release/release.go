// Package release implements the ADVM release-label mechanism of the
// paper's Section 3: a module owner freezes a working version of their
// test environment under a label (a content-hash snapshot), and a system
// regression label is composed of one sub-label per module environment.
// Regressions only run against frozen labels, because "the test
// environment is not stable during any development of the abstraction
// layer, unless frozen via a release label".
package release

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core/buildcache"
	"repro/internal/core/env"
	"repro/internal/core/memo"
	"repro/internal/core/sysenv"
	"repro/internal/core/vet"
)

// Label freezes one module environment.
type Label struct {
	// Name is the release tag, e.g. "NVM_R1".
	Name string
	// Module is the environment the label freezes.
	Module string
	// Hash is the content hash of the materialised environment tree.
	Hash string
	// Files is the frozen snapshot.
	Files map[string]string
}

// SystemLabel composes module labels into a frozen system regression
// environment. A single person releases it (the paper's release manager).
// Because the content under a label cannot change, the label also
// memoises the analyzer reports Preflight computes over it (see
// preflight.go).
type SystemLabel struct {
	// Name is the system release tag, e.g. "SYSREG_2004_07".
	Name string
	// Sub maps module name to the frozen module label.
	Sub map[string]*Label

	once     sync.Once
	analyses *memo.Cache[*vet.Report]
}

// HashTree hashes a file tree deterministically. It delegates to the
// build cache's tree hash so that a frozen label doubles as a cache
// epoch (see SystemLabel.Epoch).
func HashTree(tree map[string]string) string {
	return buildcache.HashTree(tree)
}

// Epoch returns the build-cache epoch of the frozen content: the
// composition of the per-module sub-label hashes. A system that passes
// Verify against this label has exactly this epoch — it is the same
// derivation as sysenv.System.ContentEpoch over the live environments —
// so cache entries written under it are valid for any verified run.
func (sl *SystemLabel) Epoch() string {
	mods := make([]string, 0, len(sl.Sub))
	for m := range sl.Sub {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	parts := []string{"epoch"}
	for _, m := range mods {
		parts = append(parts, m, sl.Sub[m].Hash)
	}
	return buildcache.Key(parts...)
}

// Snapshot freezes a module environment under a label name.
func Snapshot(name string, e *env.Env) *Label {
	tree := e.Materialise()
	files := make(map[string]string, len(tree))
	for p, c := range tree {
		files[p] = c
	}
	return &Label{Name: name, Module: e.Module, Hash: HashTree(tree), Files: files}
}

// Verify checks that an environment still matches the frozen label.
func (l *Label) Verify(e *env.Env) error {
	if e.Module != l.Module {
		return fmt.Errorf("release: label %s freezes module %q, not %q", l.Name, l.Module, e.Module)
	}
	if got := HashTree(e.Materialise()); got != l.Hash {
		return fmt.Errorf("release: module %q has changed since label %s was cut (hash %s.. != %s..)",
			e.Module, l.Name, got[:12], l.Hash[:12])
	}
	return nil
}

// Freeze snapshots every module environment of a system under the
// sub-label name_<module> and composes the system label name from them:
// the one recipe by which the facade, the daemon and its workers freeze,
// so that every side derives the same epoch from the same content.
func Freeze(name string, s *sysenv.System) (*SystemLabel, error) {
	var subs []*Label
	for _, e := range s.Envs() {
		subs = append(subs, Snapshot(name+"_"+e.Module, e))
	}
	return ComposeSystem(name, s, subs...)
}

// ComposeSystem builds a system label from one sub-label per module
// environment of the system. Every environment must be covered.
func ComposeSystem(name string, s *sysenv.System, subs ...*Label) (*SystemLabel, error) {
	byModule := make(map[string]*Label, len(subs))
	for _, l := range subs {
		if _, dup := byModule[l.Module]; dup {
			return nil, fmt.Errorf("release: two sub-labels for module %q", l.Module)
		}
		byModule[l.Module] = l
	}
	var missing []string
	for _, m := range s.Modules() {
		if _, ok := byModule[m]; !ok {
			missing = append(missing, m)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("release: system label %s missing sub-label(s) for %s",
			name, strings.Join(missing, ", "))
	}
	for m := range byModule {
		if _, ok := s.Env(m); !ok {
			return nil, fmt.Errorf("release: sub-label for unknown module %q", m)
		}
	}
	return &SystemLabel{Name: name, Sub: byModule}, nil
}

// Verify checks that every module environment still matches its frozen
// sub-label.
func (sl *SystemLabel) Verify(s *sysenv.System) error {
	for _, e := range s.Envs() {
		l, ok := sl.Sub[e.Module]
		if !ok {
			return fmt.Errorf("release: system label %s has no sub-label for module %q", sl.Name, e.Module)
		}
		if err := l.Verify(e); err != nil {
			return err
		}
	}
	return nil
}

// String renders the composed label ("SYSREG: NVM=NVM_R1 UART=UART_R2").
func (sl *SystemLabel) String() string {
	mods := make([]string, 0, len(sl.Sub))
	for m := range sl.Sub {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	parts := make([]string, len(mods))
	for i, m := range mods {
		parts[i] = m + "=" + sl.Sub[m].Name
	}
	return sl.Name + ": " + strings.Join(parts, " ")
}

// Registry stores labels by name.
type Registry struct {
	labels map[string]*Label
	system map[string]*SystemLabel
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{labels: map[string]*Label{}, system: map[string]*SystemLabel{}}
}

// Add stores a module label; duplicate names are an error (labels are
// immutable once cut).
func (r *Registry) Add(l *Label) error {
	if _, dup := r.labels[l.Name]; dup {
		return fmt.Errorf("release: label %q already cut", l.Name)
	}
	r.labels[l.Name] = l
	return nil
}

// AddSystem stores a system label.
func (r *Registry) AddSystem(sl *SystemLabel) error {
	if _, dup := r.system[sl.Name]; dup {
		return fmt.Errorf("release: system label %q already cut", sl.Name)
	}
	r.system[sl.Name] = sl
	return nil
}

// Get retrieves a module label.
func (r *Registry) Get(name string) (*Label, bool) {
	l, ok := r.labels[name]
	return l, ok
}

// GetSystem retrieves a system label.
func (r *Registry) GetSystem(name string) (*SystemLabel, bool) {
	sl, ok := r.system[name]
	return sl, ok
}
