package verify

import "testing"

// ExpireDeadlineAt makes the deadline check at boundary at report
// context.DeadlineExceeded for the rest of the test, as if the
// context's deadline had passed just before it.
func ExpireDeadlineAt(t testing.TB, at string) {
	expiredAt = at
	t.Cleanup(func() { expiredAt = "" })
}
