package storage

import (
	"testing"

	"xquec/internal/datagen"
)

// The query hot path iterates kids and decodes text once per item, so
// neither may allocate on either backend. Kids stays allocation-free
// only while it is an inlinable wrapper over the non-escaping eachKid;
// these pins catch an edit that breaks that.
func TestHotPathAllocs(t *testing.T) {
	rec, suc := loadBoth(t, datagen.XMark(datagen.XMarkConfig{Scale: 0.02, Seed: 7}))
	for name, s := range map[string]*Store{"records": rec, "succinct": suc} {
		n := NodeID(s.NumNodes())
		all, err := s.DeepText(nil, 1)
		if err != nil {
			t.Fatalf("%s: DeepText: %v", name, err)
		}
		dst := make([]byte, 0, len(all))
		text := testing.AllocsPerRun(5, func() {
			for id := NodeID(1); id <= n; id++ {
				if dst, err = s.Text(dst[:0], id); err != nil {
					t.Fatal(err)
				}
			}
		})
		deep := testing.AllocsPerRun(5, func() {
			for id := NodeID(1); id <= n; id++ {
				if dst, err = s.DeepText(dst[:0], id); err != nil {
					t.Fatal(err)
				}
			}
		})
		kids := testing.AllocsPerRun(5, func() {
			for id := NodeID(1); id <= n; id++ {
				for k := range s.Kids(id) {
					if k.ID == id {
						t.Fatalf("node %d is its own kid", id)
					}
				}
			}
		})
		if text != 0 || deep != 0 || kids != 0 {
			t.Errorf("%s: allocations per sweep over %d nodes: Text %.0f, DeepText %.0f, Kids %.0f; want 0",
				name, n, text, deep, kids)
		}
	}
}
