package wafl

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"waflfs/internal/aa"
)

// TestWriteIssueOrderInvariant pins the CP's deterministic allocation order:
// LUNs by (volume name, LUN name), each LUN's dirty blocks by LBA. The same
// set of LBAs written ascending, shuffled, and shuffled with in-CP
// duplicates must leave byte-identical Virt/Phys maps and Counters, on the
// classic and the pipelined CP alike. The volumes are created in the
// opposite of their name order, so a CP that followed issue or creation
// order would diverge.
func TestWriteIssueOrderInvariant(t *testing.T) {
	type write struct {
		lun int // index into the LUNs in creation order
		lba uint64
	}
	const lunBlocks = 5000
	// Two CPs: the first writes 700 LBAs per LUN, the second overwrites
	// 300 of them (COW frees) and adds 100 new ones.
	rng := rand.New(rand.NewSource(3))
	var batches [2][]write
	for lun := range 4 {
		lbas := rng.Perm(lunBlocks)[:800]
		for _, lba := range lbas[:700] {
			batches[0] = append(batches[0], write{lun, uint64(lba)})
		}
		for _, lba := range lbas[400:] {
			batches[1] = append(batches[1], write{lun, uint64(lba)})
		}
	}
	orders := map[string]func([]write) []write{
		"ascending": func(ws []write) []write {
			ws = slices.Clone(ws)
			slices.SortFunc(ws, func(a, b write) int {
				if a.lun != b.lun {
					return a.lun - b.lun
				}
				return int(a.lba) - int(b.lba)
			})
			return ws
		},
		"shuffled": func(ws []write) []write {
			ws = slices.Clone(ws)
			rng.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
			return ws
		},
		"shuffled with duplicates": func(ws []write) []write {
			ws = append(slices.Clone(ws), ws[:len(ws)/3]...)
			rng.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
			return ws
		},
	}
	for _, pipeline := range []bool{false, true} {
		tun := DefaultTunables()
		tun.CPEveryOps = 1 << 30
		tun.Pipeline = pipeline
		// run issues one order and returns the LUN maps plus the Counters,
		// the latter net of the extra client ops a duplicate costs (each
		// write op charges CPUBasePerOp; the dirty set coalesces the rest).
		run := func(order func([]write) []write) string {
			vols := []VolSpec{
				{Name: "vb", Blocks: 4 * aa.RAIDAgnosticBlocks},
				{Name: "va", Blocks: 4 * aa.RAIDAgnosticBlocks},
			}
			s := NewSystem(testSpecs(), vols, tun, 1)
			var luns []*LUN
			for _, v := range s.Agg.Vols() {
				luns = append(luns, v.CreateLUN("l1", lunBlocks), v.CreateLUN("l0", lunBlocks))
			}
			var extra uint64
			for _, b := range batches {
				ws := order(b)
				extra += uint64(len(ws) - len(b))
				for _, w := range ws {
					s.Write(luns[w.lun], w.lba, 1)
				}
				s.CP()
			}
			s.Drain()
			var sb strings.Builder
			for _, l := range luns {
				if err := l.vol.CheckRefcounts(); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&sb, "%s/%s:", l.vol.Name, l.Name)
				for lba := range l.Blocks() {
					fmt.Fprintf(&sb, " %d:%d", l.Virt(lba), l.Phys(lba))
				}
				sb.WriteByte('\n')
			}
			c := s.Counters()
			c.Ops -= extra
			c.ModOps -= extra
			c.CPUTime -= s.Agg.Tunables().CPUBasePerOp * time.Duration(extra)
			fmt.Fprintf(&sb, "%+v\n", c)
			return sb.String()
		}
		want := run(orders["ascending"])
		for name, order := range orders {
			if got := run(order); got != want {
				t.Errorf("pipeline=%v: %s order diverges from ascending", pipeline, name)
			}
		}
	}
}
