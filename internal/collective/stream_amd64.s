//go:build amd64 && !race

#include "textflag.h"

// func streamLines(dst, src *byte, lines int)
//
// Copies lines 64-byte lines from src to dst, which is 64-byte aligned.
// Each line is loaded with four unaligned 16-byte loads and stored with
// four MOVNTDQ (Go's MOVNTO): the stores combine into whole-line writes
// to memory and never read the destination line into the cache. One
// SFENCE orders them before any later store, as runtime·memmove does
// after its non-temporal loop.
TEXT ·streamLines(SB), NOSPLIT, $0-24
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	lines+16(FP), CX
	TESTQ	CX, CX
	JLE	done
loop:
	MOVOU	0x00(SI), X0
	MOVOU	0x10(SI), X1
	MOVOU	0x20(SI), X2
	MOVOU	0x30(SI), X3
	MOVNTO	X0, 0x00(DI)
	MOVNTO	X1, 0x10(DI)
	MOVNTO	X2, 0x20(DI)
	MOVNTO	X3, 0x30(DI)
	ADDQ	$0x40, SI
	ADDQ	$0x40, DI
	DECQ	CX
	JNZ	loop
	SFENCE
done:
	RET
