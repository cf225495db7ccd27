package protocol

import "testing"

func TestParseProtocol(t *testing.T) {
	for _, p := range AllProtocols() {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseProtocol(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseProtocol("OSPF"); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}
