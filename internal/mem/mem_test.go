package mem

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if Global.String() != "global" || Local.String() != "local" {
		t.Error("kind strings wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown kind string")
	}
}

func TestPoolAllocRelease(t *testing.T) {
	p := NewPool(Global, 0, 4, 4096)
	if p.Size() != 4 || p.Free() != 4 || p.InUse() != 0 {
		t.Fatalf("fresh pool size=%d free=%d inuse=%d", p.Size(), p.Free(), p.InUse())
	}
	var frames []*Frame
	for i := 0; i < 4; i++ {
		f, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if !f.InUse() {
			t.Error("allocated frame not marked in use")
		}
		frames = append(frames, f)
	}
	if _, err := p.Alloc(); err == nil {
		t.Fatal("alloc from empty pool should fail")
	} else if !strings.Contains(err.Error(), "global memory") {
		t.Errorf("error %q should name the pool", err)
	}
	p.Release(frames[2])
	if p.Free() != 1 {
		t.Errorf("free = %d, want 1", p.Free())
	}
	f, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if f != frames[2] {
		t.Error("expected LIFO reuse of released frame")
	}
}

func TestPoolAllocOrder(t *testing.T) {
	p := NewPool(Local, 3, 3, 1024)
	for want := 0; want < 3; want++ {
		f, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if f.Index() != want {
			t.Errorf("alloc %d returned frame %d", want, f.Index())
		}
		if f.Proc() != 3 || f.Kind() != Local {
			t.Errorf("frame identity wrong: %s", f)
		}
	}
}

func TestDoubleFreePanics(t *testing.T) {
	p := NewPool(Global, -1, 1, 512)
	f, _ := p.Alloc()
	p.Release(f)
	defer func() {
		if recover() == nil {
			t.Fatal("double free should panic")
		}
	}()
	p.Release(f)
}

func TestWrongPoolReleasePanics(t *testing.T) {
	p0 := NewPool(Local, 0, 1, 512)
	p1 := NewPool(Local, 1, 1, 512)
	f, _ := p0.Alloc()
	defer func() {
		if recover() == nil {
			t.Fatal("cross-pool release should panic")
		}
	}()
	p1.Release(f)
}

func TestBadPageSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non power-of-two page size should panic")
		}
	}()
	NewPool(Global, -1, 1, 1000)
}

func TestFrameWordAccess(t *testing.T) {
	p := NewPool(Global, -1, 1, 4096)
	f, _ := p.Alloc()
	if f.Load32(0) != 0 || f.Load64(8) != 0 || f.Load8(100) != 0 {
		t.Error("untouched frame must read zero")
	}
	f.Store32(0, 0xdeadbeef)
	f.Store64(8, 0x0123456789abcdef)
	f.Store8(100, 0x7f)
	if f.Load32(0) != 0xdeadbeef {
		t.Errorf("Load32 = %#x", f.Load32(0))
	}
	if f.Load64(8) != 0x0123456789abcdef {
		t.Errorf("Load64 = %#x", f.Load64(8))
	}
	if f.Load8(100) != 0x7f {
		t.Errorf("Load8 = %#x", f.Load8(100))
	}
}

func TestFrameBoundsPanic(t *testing.T) {
	p := NewPool(Global, -1, 1, 512)
	f, _ := p.Alloc()
	for _, fn := range []func(){
		func() { f.Load32(510) },
		func() { f.Store32(-1, 0) },
		func() { f.Load64(508) },
		func() { f.Load8(512) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-bounds access should panic")
				}
			}()
			fn()
		}()
	}
}

// TestFrameBoundsPanicMessage pins the bounds check's panic message for
// a negative offset and for an overrun, on every accessor width, and the
// edges that must not panic.
func TestFrameBoundsPanicMessage(t *testing.T) {
	p := NewPool(Local, 3, 2, 512)
	p.Alloc()
	f, _ := p.Alloc()
	msg := func(fn func()) (s string) {
		defer func() {
			if r := recover(); r != nil {
				s = fmt.Sprint(r)
			}
		}()
		fn()
		return ""
	}
	for _, tc := range []struct {
		fn   func()
		want string
	}{
		{func() { f.Load32(-4) }, "mem: access [-4,0) outside 512-byte frame local3[1]"},
		{func() { f.Store32(-1, 0) }, "mem: access [-1,3) outside 512-byte frame local3[1]"},
		{func() { f.Load8(-1) }, "mem: access [-1,0) outside 512-byte frame local3[1]"},
		{func() { f.Store64(-8, 0) }, "mem: access [-8,0) outside 512-byte frame local3[1]"},
		{func() { f.Load32(510) }, "mem: access [510,514) outside 512-byte frame local3[1]"},
		{func() { f.Store8(512, 0) }, "mem: access [512,513) outside 512-byte frame local3[1]"},
		{func() { f.Load64(505) }, "mem: access [505,513) outside 512-byte frame local3[1]"},
		{func() { f.Store64(1<<40, 0) }, fmt.Sprintf("mem: access [%d,%d) outside 512-byte frame local3[1]", 1<<40, 1<<40+8)},
		{func() { f.Load32(508); f.Store64(504, 1); f.Load8(0); f.Store8(511, 1) }, ""},
	} {
		if got := msg(tc.fn); got != tc.want {
			t.Errorf("panic %q, want %q", got, tc.want)
		}
	}
}

func TestZeroAndCopy(t *testing.T) {
	p := NewPool(Global, -1, 2, 256)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	a.Store32(4, 42)
	b.CopyFrom(a)
	if b.Load32(4) != 42 {
		t.Error("CopyFrom did not copy data")
	}
	a.Zero()
	if a.Load32(4) != 0 {
		t.Error("Zero did not clear")
	}
	if b.Load32(4) != 42 {
		t.Error("Zero of source affected copy")
	}
	// Copying from a never-touched frame zeroes the destination.
	c := NewPool(Global, -1, 1, 256)
	fresh, _ := c.Alloc()
	b.CopyFrom(fresh)
	if b.Load32(4) != 0 {
		t.Error("CopyFrom(untouched) should zero destination")
	}
}

func TestZeroUntouchedIsNoop(t *testing.T) {
	p := NewPool(Global, -1, 1, 256)
	f, _ := p.Alloc()
	f.Zero() // must not allocate
	if f.data != nil {
		t.Error("Zero on untouched frame should not allocate backing store")
	}
}

func TestEqual(t *testing.T) {
	p := NewPool(Global, -1, 3, 128)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	c, _ := p.Alloc()
	if !a.Equal(b) {
		t.Error("two untouched frames must be equal")
	}
	b.Store32(0, 0) // touched but still zero
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("untouched vs explicit-zero frames must be equal")
	}
	c.Store32(0, 9)
	if a.Equal(c) || c.Equal(a) {
		t.Error("different contents must not be equal")
	}
}

func TestCopyMismatchedSizesPanics(t *testing.T) {
	a, _ := NewPool(Global, -1, 1, 256).Alloc()
	b, _ := NewPool(Global, -1, 1, 512).Alloc()
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched copy should panic")
		}
	}()
	a.CopyFrom(b)
}

func TestMemoryAggregate(t *testing.T) {
	m := NewMemory(4, 16, 8, 4096)
	if m.NProc() != 4 {
		t.Errorf("NProc = %d", m.NProc())
	}
	if m.PageSize() != 4096 {
		t.Errorf("PageSize = %d", m.PageSize())
	}
	if m.Global().Size() != 16 {
		t.Errorf("global size = %d", m.Global().Size())
	}
	for i := 0; i < 4; i++ {
		if m.Local(i).Size() != 8 {
			t.Errorf("local %d size = %d", i, m.Local(i).Size())
		}
		f, err := m.Local(i).Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if f.Proc() != i {
			t.Errorf("local frame proc = %d, want %d", f.Proc(), i)
		}
	}
}

// Property: a round trip of any word through a frame preserves the value,
// and neighbouring words are untouched.
func TestStoreLoadRoundTrip(t *testing.T) {
	p := NewPool(Global, -1, 1, 4096)
	f, _ := p.Alloc()
	prop := func(off uint16, v uint32, w uint64) bool {
		o32 := int(off) % (4096 - 4)
		o32 -= o32 % 4
		o64 := (int(off) + 512) % (4096 - 8) &^ 7
		if o64 == o32 || (o64 < o32+4 && o64+8 > o32) {
			return true // skip overlapping picks
		}
		f.Store32(o32, v)
		f.Store64(o64, w)
		return f.Load32(o32) == v && f.Load64(o64) == w
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFrameString(t *testing.T) {
	g, _ := NewPool(Global, -1, 1, 256).Alloc()
	l, _ := NewPool(Local, 2, 1, 256).Alloc()
	if g.String() != "global[0]" {
		t.Errorf("global string = %q", g.String())
	}
	if l.String() != "local2[0]" {
		t.Errorf("local string = %q", l.String())
	}
}
