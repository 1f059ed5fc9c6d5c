package fault

import (
	"testing"
	"time"
)

func TestDisarmedIsNoop(t *testing.T) {
	Reset()
	if err := Inject("serve.match"); err != nil {
		t.Fatalf("disarmed inject: %v", err)
	}
}

func TestEveryCallFiresByDefault(t *testing.T) {
	defer Reset()
	Enable("serve.match", Plan{})
	for i := 0; i < 3; i++ {
		if err := Inject("serve.match"); err == nil {
			t.Fatalf("call %d should fire", i)
		}
	}
	// Other sites stay silent.
	if err := Inject("serve.predict"); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
}

func TestOnCall(t *testing.T) {
	defer Reset()
	Enable("serve.match", Plan{OnCall: 2})
	if err := Inject("serve.match"); err != nil {
		t.Fatalf("call 1: %v", err)
	}
	if err := Inject("serve.match"); err == nil {
		t.Fatal("call 2 should fire")
	}
	if err := Inject("serve.match"); err != nil {
		t.Fatalf("call 3: %v", err)
	}
}

func TestSleepMode(t *testing.T) {
	defer Reset()
	Enable("serve.predict", Plan{Mode: ModeSleep, Sleep: 20 * time.Millisecond})
	start := time.Now()
	if err := Inject("serve.predict"); err != nil {
		t.Fatalf("sleep mode returned error: %v", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("sleep mode did not sleep")
	}
}
