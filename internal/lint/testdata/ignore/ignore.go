// Package ignore is a vollint golden fixture for directive hygiene:
// suppression with a reason, missing reasons, unknown checks, and stale
// directives that match no finding.
package ignore

import "time"

// Suppressed demonstrates a justified suppression with an audit reason.
func Suppressed() {
	_ = time.NewTicker(time.Second) //vollint:ignore tickleak fixture: the process owns this ticker for its whole life
}

// MissingReason drops the mandatory reason: the directive is malformed
// and the finding stays active.
func MissingReason() {
	_ = time.NewTicker(time.Second) //vollint:ignore tickleak
}

// UnknownCheck names a check that does not exist.
func UnknownCheck() {
	_ = time.NewTicker(time.Second) //vollint:ignore gophers because reasons
}

//vollint:ignore tickleak stale: the ticker below is stopped
func Stale() {
	t := time.NewTicker(time.Second)
	t.Stop()
}
