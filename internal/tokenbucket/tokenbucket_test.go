package tokenbucket

import "testing"

func TestBucketSpendAndEarn(t *testing.T) {
	b := New(0.5, 2)
	// The bucket starts full: burst sends go out, then it runs dry.
	if !b.Spend() || !b.Spend() {
		t.Fatal("a full bucket must fund its burst")
	}
	if b.Spend() {
		t.Fatal("an empty bucket must refuse a send")
	}
	// Two successes at ratio 0.5 earn one token back.
	b.Earn()
	if b.Spend() {
		t.Fatal("half a token must not fund a send")
	}
	b.Earn()
	if !b.Spend() {
		t.Fatal("a whole earned token must fund exactly one send")
	}
	if b.Spend() {
		t.Fatal("the earned token was already spent")
	}
}

func TestBucketEarnCapsAtBurst(t *testing.T) {
	b := New(1, 3)
	for i := 0; i < 100; i++ {
		b.Earn()
	}
	for i := 0; i < 3; i++ {
		if !b.Spend() {
			t.Fatalf("spend %d refused after heavy earning; cap lost tokens it should have kept", i)
		}
	}
	if b.Spend() {
		t.Fatal("earning past the cap must not mint tokens beyond burst")
	}
}

func TestBucketDisabled(t *testing.T) {
	b := New(0.1, 0)
	for i := 0; i < 64; i++ {
		if !b.Spend() {
			t.Fatal("burst <= 0 disables the bucket; Spend must always allow")
		}
	}
}
