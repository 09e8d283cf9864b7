//go:build !amd64 || race

package collective

// streamCopy is copy: race builds take it too, so that the detector
// sees every result-buffer write.
func streamCopy(dst, src []byte) { copy(dst, src) }
