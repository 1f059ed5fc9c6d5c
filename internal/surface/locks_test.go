package surface

import (
	"fmt"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// probePackages are the packages every probe of a match runs through —
// blocking, rules, features. What they prepare from a right table is
// either built per call or bound once into immutable values (DESIGN
// §5a), so none of them needs a lock.
var probePackages = []string{"emgo/internal/block", "emgo/internal/rules", "emgo/internal/feature"}

// TestNoLockOnProbePaths fails when a non-test file of a probe package
// names sync.Mutex or sync.RWMutex: a field, a variable, an embedding or
// a new() of either. A part that wants one is either built per call or
// built once and then only read.
func TestNoLockOnProbePaths(t *testing.T) {
	m := loadModule(t)
	var locks []string
	for _, path := range probePackages {
		p, ok := m.pkgs[path]
		if !ok {
			t.Fatalf("%s: not loaded", path)
		}
		for id, obj := range p.info.Uses {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.Pkg() == nil || tn.Pkg().Path() != "sync" || (tn.Name() != "Mutex" && tn.Name() != "RWMutex") {
				continue
			}
			locks = append(locks, fmt.Sprintf("%s: sync.%s", m.at(id.Pos()), tn.Name()))
		}
	}
	sort.Strings(locks)
	if len(locks) > 0 {
		t.Errorf("%d lock(s) on a probe path; build the part per call, or once into a value nothing writes after:\n\t%s",
			len(locks), strings.Join(locks, "\n\t"))
	}
}
