package bufpool

import "testing"

func TestGetLengthAndCapacity(t *testing.T) {
	for _, n := range []int{0, 1, 4096, 256 << 10} {
		b := Get(n)
		if len(b) != n || cap(b) != n {
			t.Fatalf("Get(%d): len %d cap %d", n, len(b), cap(b))
		}
		Put(b)
		if b = Get(n); len(b) != n || cap(b) != n {
			t.Fatalf("Get(%d) after Put: len %d cap %d", n, len(b), cap(b))
		}
	}
}

// TestPutForeignCapacity hands back a buffer of a capacity no Get asked
// for: Put must drop it rather than open a pool for every odd size.
func TestPutForeignCapacity(t *testing.T) {
	const odd = 12345
	Put(make([]byte, 7, odd))
	if _, ok := pools.Load(odd); ok {
		t.Fatal("Put opened a pool for a capacity nobody requested")
	}
	b := Get(odd - 1)
	Put(append(b, 1, 2)) // grown past its class: dropped, not mis-filed
	if b := Get(odd - 1); cap(b) != odd-1 {
		t.Fatalf("Get returned cap %d, want %d", cap(b), odd-1)
	}
}
