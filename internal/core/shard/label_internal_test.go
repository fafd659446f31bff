package shard

import (
	"testing"

	"repro/internal/core/content"
	"repro/internal/core/env"
	"repro/internal/core/sysenv"
)

// TestDaemonAnalysesEachEpochOnce: two requests that freeze to the same
// label name and epoch share the daemon's kept label, so the vet
// preflight analyses that epoch once; a request whose content freezes to
// a new epoch gets a new label and is analysed again.
func TestDaemonAnalysesEachEpochOnce(t *testing.T) {
	sys := content.PortedSystem
	d := &Daemon{NewSystem: func() *sysenv.System { return sys() }}
	req := &Request{Label: "SYSREG_WARM", Engine: "translate"}

	first, err := d.plan(req)
	if err != nil {
		t.Fatal(err)
	}
	kept := d.label
	second, err := d.plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.label != kept || second.Epoch != first.Epoch {
		t.Fatal("a request for the same frozen content did not reuse the daemon's label")
	}
	if n := kept.Analyses(); n != 1 {
		t.Fatalf("two requests on one epoch analysed it %d times, want 1", n)
	}

	sys = func() *sysenv.System {
		s := content.PortedSystem()
		e, _ := s.Env(content.ModuleNVM)
		e.MustAddTest(env.TestCell{ID: "TEST_NVM_AGAIN", Source: e.Tests()[0].Source})
		return s
	}
	third, err := d.plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if third.Epoch == first.Epoch || d.label == kept {
		t.Fatal("new content reused the previous epoch's label")
	}
	if n := d.label.Analyses(); n != 1 {
		t.Errorf("the new epoch was analysed %d times, want 1", n)
	}
	if len(third.Cells) <= len(first.Cells) {
		t.Errorf("plan over the new content has %d cells, want more than %d", len(third.Cells), len(first.Cells))
	}
}
