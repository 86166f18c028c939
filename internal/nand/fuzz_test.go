package nand

import (
	"errors"
	"testing"
)

// refPage is the reference model of one page: what the device must
// report for it through State, PeekOOB and Read.
type refPage struct {
	state PageState
	oob   OOB
}

// fuzzLPN maps one input byte onto the LPN range the page word must
// handle: its two high bits pick a band (small, just below the 54-bit
// limit, at or past it, high bits set) and the low six bits an offset.
func fuzzLPN(b byte) uint64 {
	off := uint64(b & 63)
	switch b >> 6 {
	case 0:
		return off
	case 1:
		return maxLPN - off
	case 2:
		return maxLPN + 1 + off<<50
	default:
		return off << 48
	}
}

// FuzzDevicePages drives the device's page state with an arbitrary op
// sequence on two chips of three four-page blocks and checks it against a
// plain per-page reference model after every op: each page's state, LPN
// and tag, each block's valid and invalid counts, and CheckAccounting.
//
// Every op is four input bytes: an op selector, a target (a block, or a
// PPN that may lie two pages past the device), a tag byte and an LPN
// byte (see fuzzLPN). The ops are Program of a block's next page (of its
// last page once the block is full), Invalidate, Erase, Read, PeekOOB
// and State. Each op's outcome is checked too: Program succeeds exactly
// on a free next page with an LPN that fits, Invalidate exactly on a
// valid page, Erase exactly on a block without valid pages, and Read
// exactly on an in-range page that is not free; a failed op changes
// nothing.
func FuzzDevicePages(f *testing.F) {
	cfg := testConfig()
	cfg.PagesPerBlock, cfg.Layers, cfg.BlocksPerChip, cfg.Chips = 4, 2, 3, 2
	f.Fuzz(func(t *testing.T, data []byte) {
		d := MustNewDevice(cfg)
		blocks, ppb := cfg.TotalBlocks(), cfg.PagesPerBlock
		ref := make([]refPage, cfg.TotalPages())
		next := make([]int, blocks)
		for i := 0; i+3 < len(data); i += 4 {
			op, arg := data[i]%6, int(data[i+1])
			oob := OOB{LPN: fuzzLPN(data[i+3]), Tag: data[i+2]}
			b := BlockID(arg % blocks)
			p := PPN(arg % (len(ref) + 2))
			in := int(p) < len(ref)
			switch op {
			case 0:
				page := min(next[b], ppb-1)
				p = cfg.PPNForBlockPage(b, page)
				_, err := d.Program(p, oob)
				if ok := next[b] < ppb && oob.LPN <= maxLPN; (err == nil) != ok {
					t.Fatalf("op %d: Program(%d, %+v) at cursor %d: %v", i, p, oob, next[b], err)
				}
				if err == nil {
					ref[p] = refPage{PageValid, oob}
					next[b]++
				} else if oob.LPN > maxLPN && next[b] < ppb && !errors.Is(err, ErrOutOfRange) {
					t.Fatalf("op %d: Program of LPN %d: %v, want ErrOutOfRange", i, oob.LPN, err)
				}
			case 1:
				err := d.Invalidate(p)
				if ok := in && ref[p].state == PageValid; (err == nil) != ok {
					t.Fatalf("op %d: Invalidate(%d): %v", i, p, err)
				}
				if err == nil {
					ref[p].state = PageInvalid
				}
			case 2:
				first := int(cfg.PPNForBlockPage(b, 0))
				valid := false
				for _, r := range ref[first : first+ppb] {
					valid = valid || r.state == PageValid
				}
				if _, err := d.Erase(b); (err == nil) == valid {
					t.Fatalf("op %d: Erase(%d) with valid pages %v: %v", i, b, valid, err)
				}
				if !valid {
					clear(ref[first : first+ppb])
					next[b] = 0
				}
			case 3:
				got, _, err := d.Read(p)
				if ok := in && ref[p].state != PageFree; (err == nil) != ok {
					t.Fatalf("op %d: Read(%d): %v", i, p, err)
				}
				if err == nil && got != ref[p].oob {
					t.Fatalf("op %d: Read(%d) = %+v, want %+v", i, p, got, ref[p].oob)
				}
			case 4:
				if got := d.PeekOOB(p); in && got != ref[p].oob || !in && got != (OOB{}) {
					t.Fatalf("op %d: PeekOOB(%d) = %+v", i, p, got)
				}
			case 5:
				if got := d.State(p); in && got != ref[p].state || !in && got != PageFree {
					t.Fatalf("op %d: State(%d) = %v", i, p, got)
				}
			}
			for q, r := range ref {
				if s, o := d.State(PPN(q)), d.PeekOOB(PPN(q)); s != r.state || o != r.oob {
					t.Fatalf("op %d: page %d is %v %+v, want %v %+v", i, q, s, o, r.state, r.oob)
				}
			}
			for blk := range blocks {
				var valid, invalid int
				for _, r := range ref[blk*ppb : (blk+1)*ppb] {
					switch r.state {
					case PageValid:
						valid++
					case PageInvalid:
						invalid++
					}
				}
				if v, n := d.ValidPages(BlockID(blk)), d.InvalidPages(BlockID(blk)); v != valid || n != invalid {
					t.Fatalf("op %d: block %d counts %d valid %d invalid, want %d and %d", i, blk, v, n, valid, invalid)
				}
			}
			if err := d.CheckAccounting(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	})
}
