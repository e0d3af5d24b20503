package setchain

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/setcrypto"
	"repro/internal/wire"
)

// Check is not vacuously green on the public road: corrupting one correct
// server's last epoch — an element committed twice, or one no client ever
// added — makes it fail and name that server. It ignores the same
// corruption on a server made Byzantine.
func TestCheckNamesCorruptedServer(t *testing.T) {
	forged := &wire.Element{ID: wire.ElementID{0xF0, 0x12, 0xED}, Size: 64}
	for name, corrupt := range map[string]func([]*wire.Element) []*wire.Element{
		"duplicate": func(es []*wire.Element) []*wire.Element { return append(slices.Clone(es), es[0]) },
		"forge":     func(es []*wire.Element) []*wire.Element { return append(slices.Clone(es), forged) },
	} {
		t.Run(name, func(t *testing.T) {
			net, err := New(Config{Algorithm: Hashchain, Servers: 4, CollectorSize: 5})
			if err != nil {
				t.Fatal(err)
			}
			if err := net.SetByzantine(3, &Byzantine{CorruptProofs: true}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if _, err := net.Client(i % 4).Add([]byte(fmt.Sprintf("m-%d", i))); err != nil {
					t.Fatal(err)
				}
				net.Run(100 * time.Millisecond)
			}
			if !net.RunUntilSettled(time.Minute) {
				t.Fatal("never settled")
			}
			if err := net.Check(); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			// A history is the server's own slice; its epochs' element
			// slices are shared with the other servers, so the corrupted
			// epoch gets a copy.
			corruptLast := func(server int) {
				hist := net.History(server)
				last := *hist[len(hist)-1]
				last.Elements = corrupt(last.Elements)
				hist[len(hist)-1] = &last
			}
			corruptLast(3)
			if err := net.Check(); err != nil {
				t.Fatalf("Check audits Byzantine server 3: %v", err)
			}
			corruptLast(2)
			err = net.Check()
			if err == nil || !strings.Contains(err.Error(), "server 2:") {
				t.Fatalf("Check after corrupting server 2 = %v, want a violation naming server 2", err)
			}
			if strings.Contains(err.Error(), "server 1:") || strings.Contains(err.Error(), "server 3:") {
				t.Fatalf("Check blames a server other than 2: %v", err)
			}
		})
	}
}

// Client.Add refuses a payload whose element would not fit a 32-bit wire
// size rather than wrap it; a payload of exactly MaxPayload makes an
// element of wire.MaxElementSize bytes.
func TestAddBoundsPayload(t *testing.T) {
	if MaxPayload+wire.ElementHeaderSize+setcrypto.SignatureSize != wire.MaxElementSize {
		t.Fatalf("MaxPayload %d does not make a %d-byte element", MaxPayload, wire.MaxElementSize)
	}
	if err := checkPayload(MaxPayload); err != nil {
		t.Fatalf("payload of MaxPayload bytes refused: %v", err)
	}
	if err := checkPayload(MaxPayload + 1); err == nil || !strings.Contains(err.Error(), "exceeds MaxPayload") {
		t.Fatalf("payload of MaxPayload+1 bytes: err = %v, want the MaxPayload error", err)
	}
	net, err := New(Config{Algorithm: Vanilla, Servers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Client(0).Add(make([]byte, 1024)); err != nil {
		t.Fatalf("a 1 KiB payload refused: %v", err)
	}
}
