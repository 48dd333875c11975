package world

import (
	"testing"

	"protego/internal/kernel"
)

func BenchmarkBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Build(Options{Mode: kernel.ModeProtego}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClone(b *testing.B) {
	snap, err := Golden(kernel.ModeProtego)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.Clone(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelClone(b *testing.B) {
	m, err := Build(Options{Mode: kernel.ModeProtego})
	if err != nil {
		b.Fatal(err)
	}
	m.K.FS.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.K.Clone()
	}
}
