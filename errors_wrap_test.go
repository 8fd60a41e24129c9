package exactsim

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
)

// Wrapf must keep the local errors.Is/As chain intact while attaching a
// transport code, and must shed the cause (but not the code or message)
// at the serialization boundary — the exact contract errcode pushes the
// serving surface towards.
func TestWrapfChainAndSerialization(t *testing.T) {
	cause := context.DeadlineExceeded
	err := Wrapf(CodeDeadlineExceeded, cause, "fetching shard %d", 3)

	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("wrapped cause lost: errors.Is(err, DeadlineExceeded) = false")
	}
	var pe *Error
	if !errors.As(err, &pe) || pe.Code != CodeDeadlineExceeded {
		t.Errorf("errors.As: got %+v", pe)
	}
	if want := "fetching shard 3: context deadline exceeded"; pe.Message != want {
		t.Errorf("Message = %q, want %q", pe.Message, want)
	}

	// Round-trip through JSON: the code survives, the cause does not,
	// and code-based Is matching still holds on the far side.
	data, jerr := json.Marshal(err)
	if jerr != nil {
		t.Fatal(jerr)
	}
	var remote Error
	if jerr := json.Unmarshal(data, &remote); jerr != nil {
		t.Fatal(jerr)
	}
	if remote.Unwrap() != nil {
		t.Error("cause crossed the serialization boundary")
	}
	if !errors.Is(&remote, context.DeadlineExceeded) {
		t.Error("code-based Is matching lost after round-trip")
	}
	if remote.Message != pe.Message {
		t.Errorf("message lost: %q != %q", remote.Message, pe.Message)
	}
}

func TestWrapfNilCause(t *testing.T) {
	err := Wrapf(CodeInternal, nil, "no cause")
	if err.Message != "no cause" {
		t.Errorf("Message = %q", err.Message)
	}
	if err.Unwrap() != nil {
		t.Error("Unwrap() != nil for nil cause")
	}
}

// TestErrorCodeRetryable pins the one retry rule the client and the
// router share: every code of the taxonomy, and whether it re-sends.
func TestErrorCodeRetryable(t *testing.T) {
	for code, want := range map[ErrorCode]bool{
		CodeInvalidArgument:  false,
		CodeNotFound:         false,
		CodeDeadlineExceeded: false,
		CodeCanceled:         false,
		CodeUnavailable:      true,
		CodeClosed:           true,
		CodeInternal:         true,
	} {
		if got := code.Retryable(); got != want {
			t.Errorf("%s.Retryable() = %v, want %v", code, got, want)
		}
	}
}
