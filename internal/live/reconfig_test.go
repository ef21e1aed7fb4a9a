package live

import (
	"fmt"
	"sync"
	"testing"

	"anufs/internal/core"
	"anufs/internal/sharedisk"
)

// TestConcurrentReconfigurationsKeepOwnershipConsistent issues kills and
// commissions at once. Whatever order they run in, every file set must
// end up held by exactly the server the published mapping routes it to —
// otherwise requests for it answer ErrNotOwner until some later round
// happens to move it again.
func TestConcurrentReconfigurationsKeepOwnershipConsistent(t *testing.T) {
	const fileSets = 32
	for round := 0; round < 20; round++ {
		disk := sharedisk.NewStore(0)
		for i := 0; i < fileSets; i++ {
			if err := disk.CreateFileSet(fmt.Sprintf("fs%02d", i)); err != nil {
				t.Fatal(err)
			}
		}
		c, err := NewCluster(testConfig(), disk, map[int]float64{0: 1, 1: 2, 2: 3, 3: 4})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for _, op := range []func() error{
			func() error { return c.Kill(1) },
			func() error { return c.AddServer(10, 2) },
			func() error { return c.Kill(2) },
			func() error { return c.AddServer(11, 5) },
		} {
			wg.Add(1)
			go func(op func() error) {
				defer wg.Done()
				if err := op(); err != nil {
					errs <- err
				}
			}(op)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		m := c.snapshot.Load().(*core.Mapper)
		c.mu.Lock()
		for i := 0; i < fileSets; i++ {
			fs := fmt.Sprintf("fs%02d", i)
			owner := m.Owner(fs)
			for id, s := range c.servers {
				if held := s.ms.Owns(fs); held != (id == owner) {
					c.mu.Unlock()
					t.Fatalf("round %d: %s routed to server %d, but server %d holds=%v", round, fs, owner, id, held)
				}
			}
		}
		c.mu.Unlock()
		c.Stop()
	}
}
