package store

import (
	"strings"
	"testing"

	"locsvc/internal/core"
	"locsvc/internal/geo"
)

func rectArea2(x0, y0, x1, y1 float64) core.Area {
	return core.AreaFromRect(geo.R(x0, y0, x1, y1))
}

func quadConfig() ConfigRecord {
	return ConfigRecord{
		ID: "root",
		SA: rectArea2(0, 0, 100, 100),
		Children: []ChildRecord{
			{ID: "c0", SA: rectArea2(0, 0, 50, 50)},
			{ID: "c1", SA: rectArea2(50, 0, 100, 50)},
			{ID: "c2", SA: rectArea2(0, 50, 50, 100)},
			{ID: "c3", SA: rectArea2(50, 50, 100, 100)},
		},
	}
}

func TestConfigRoles(t *testing.T) {
	c := quadConfig()
	if !c.IsRoot() || c.IsLeaf() {
		t.Error("root config misclassified")
	}
	leaf := ConfigRecord{ID: "l", SA: rectArea2(0, 0, 1, 1), Parent: "root"}
	if leaf.IsRoot() || !leaf.IsLeaf() {
		t.Error("leaf config misclassified")
	}
}

func TestChildFor(t *testing.T) {
	c := quadConfig()
	tests := []struct {
		p    geo.Point
		want string
	}{
		{geo.Pt(10, 10), "c0"},
		{geo.Pt(60, 10), "c1"},
		{geo.Pt(10, 60), "c2"},
		{geo.Pt(60, 60), "c3"},
		{geo.Pt(50, 50), "c3"}, // boundary goes to the half-open owner
		{geo.Pt(0, 0), "c0"},
		{geo.Pt(100, 100), "c3"}, // outer corner falls back to closed test
	}
	for _, tt := range tests {
		got, ok := c.ChildFor(tt.p)
		if !ok || got.ID != tt.want {
			t.Errorf("ChildFor(%v) = %v/%v, want %v", tt.p, got.ID, ok, tt.want)
		}
	}
	if _, ok := c.ChildFor(geo.Pt(200, 200)); ok {
		t.Error("ChildFor outside parent area succeeded")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := quadConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	leaf := ConfigRecord{ID: "l", SA: rectArea2(0, 0, 1, 1)}
	if err := leaf.Validate(); err != nil {
		t.Errorf("valid leaf rejected: %v", err)
	}

	t.Run("missing id", func(t *testing.T) {
		c := quadConfig()
		c.ID = ""
		if err := c.Validate(); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("empty area", func(t *testing.T) {
		c := quadConfig()
		c.SA = core.Area{}
		if err := c.Validate(); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("overlapping children", func(t *testing.T) {
		c := quadConfig()
		c.Children[1].SA = rectArea2(25, 0, 100, 50) // overlaps c0
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "overlap") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("children do not cover parent", func(t *testing.T) {
		c := quadConfig()
		c.Children = c.Children[:3]
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "cover") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("child without id", func(t *testing.T) {
		c := quadConfig()
		c.Children[2].ID = ""
		if err := c.Validate(); err == nil {
			t.Error("accepted")
		}
	})
}
