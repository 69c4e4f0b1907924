package litmus

import "testing"

// TestOutcomeKey pins the outcome key format (loads per thread joined
// by '/', values by ',', then '|' and the final values) and that
// AppendKey extends the buffer it is given.
func TestOutcomeKey(t *testing.T) {
	o := Outcome{Loads: [][]uint32{{1, 4294967295}, nil, {3}}, Final: []uint32{0, 12}}
	const want = "1,4294967295//3|0,12"
	if got := o.Key(); got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
	buf := o.AppendKey([]byte("prefix:"))
	if string(buf) != "prefix:"+want {
		t.Fatalf("AppendKey = %q, want %q", buf, "prefix:"+want)
	}
	if got := (Outcome{}).Key(); got != "|" {
		t.Fatalf("empty outcome key = %q, want %q", got, "|")
	}
}
