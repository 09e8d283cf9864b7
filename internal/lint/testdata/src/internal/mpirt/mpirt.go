// Package mpirt is a type-compatible stub of the real runtime, just
// enough surface for the analyzer fixtures to type-check: the analyzers
// resolve comm calls by package path suffix and method name, so the
// stub's paths and signatures must mirror the real ones.
package mpirt

// AnySource matches any sender in Recv/Probe.
const AnySource = -1

// Msg mirrors the runtime's delivered-message shape.
type Msg struct {
	Src, Tag, Size int
	Data           []byte
	Meta           any
}

// Snapshot is an eager payload handle.
type Snapshot struct{}

// Release gives up the handle's hold.
func (s *Snapshot) Release() {}

// Comm is a communicator stub.
type Comm struct{}

// Proc is one rank's runtime handle.
type Proc struct{}

func (p *Proc) Rank() int { return 0 }
func (p *Proc) Size() int { return 1 }

func (p *Proc) Send(dst, tag, size int, data []byte, meta any)                  {}
func (p *Proc) Gather(src []byte) Snapshot                                      { return Snapshot{} }
func (p *Proc) SendSnapshot(dst, tag, size int, s Snapshot, meta any, slot int) {}
func (p *Proc) Recv(src, tag int) Msg                                           { return Msg{} }
func (p *Proc) Probe(src, tag int) bool                                         { return false }

func (p *Proc) SendErr(dst, tag, size int, data []byte, meta any) error { return nil }
func (p *Proc) RecvErr(src, tag int) (Msg, error)                       { return Msg{}, nil }

func (p *Proc) Barrier()       {}
func (p *Proc) SyncResetTime() {}
func (p *Proc) Yield()         {}
func (p *Proc) VT() float64    { return 0 }

func (p *Proc) Sub(c *Comm, tagShift int) *SubProc { return &SubProc{} }

// SubProc is a communicator-scoped view of a Proc.
type SubProc struct{}

func (s *SubProc) Send(dst, tag, size int, data []byte, meta any)                     {}
func (s *SubProc) Gather(src []byte) Snapshot                                         { return Snapshot{} }
func (s *SubProc) SendSnapshot(dst, tag, size int, snap Snapshot, meta any, slot int) {}
func (s *SubProc) Recv(src, tag int) Msg                                              { return Msg{} }

// RankFailedError mirrors the runtime's typed fail-stop error.
type RankFailedError struct{ Rank int }

func (e *RankFailedError) Error() string { return "rank failed" }

// CommRevokedError mirrors the runtime's typed revocation error.
type CommRevokedError struct{}

func (e *CommRevokedError) Error() string { return "communicator revoked" }

// ErrLinkFailed mirrors the runtime's link-failure sentinel: both
// *LinkFailedError and *PartitionError match it through errors.Is.
var ErrLinkFailed = &sentinelError{"mpirt: link failed"}

type sentinelError struct{ msg string }

func (e *sentinelError) Error() string { return e.msg }

// LinkFailedError mirrors the runtime's typed dead-link error.
type LinkFailedError struct{ Src, Dst int }

func (e *LinkFailedError) Error() string   { return "link down: transfer undeliverable" }
func (e *LinkFailedError) Is(t error) bool { return t == ErrLinkFailed }

// PartitionError mirrors the runtime's typed fabric-partition error.
type PartitionError struct{ Groups []int }

func (e *PartitionError) Error() string   { return "fabric partitioned" }
func (e *PartitionError) Is(t error) bool { return t == ErrLinkFailed }
