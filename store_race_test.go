package trustmap_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"trustmap"
	"trustmap/internal/query"
	"trustmap/wire"
)

// TestStoreUsersConcurrentWithTrustWrites runs SetTrust calls that
// register fresh users concurrently with Users() and with a query over
// the store, which reads the same user universe. Under -race every read
// must come from a published epoch, never from the network the writer is
// growing; the user set a reader sees may only grow.
func TestStoreUsersConcurrentWithTrustWrites(t *testing.T) {
	n := trustmap.New()
	n.SetBelief("root", "v")
	st, err := n.NewStore(trustmap.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := st.PutObject(ctx, "o1", map[string]string{"root": "w"}); err != nil {
		t.Fatal(err)
	}
	plan, err := query.Compile(wire.Query{
		GroupBy: []string{"user"},
		Aggs:    []wire.Aggregate{{Fn: wire.AggCount, As: "n"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	const writes = 200
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < writes; i++ {
			if err := st.SetTrust(ctx, fmt.Sprintf("fresh%d", i), "root", 1); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := 0
		for {
			select {
			case <-done:
				return
			default:
			}
			users := st.Users()
			if len(users) < last {
				t.Errorf("user set shrank from %d to %d", last, len(users))
				return
			}
			last = len(users)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := query.Run(ctx, st, plan); err != nil {
				t.Errorf("query: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if got := len(st.Users()); got != writes+1 {
		t.Fatalf("%d users after %d fresh truster writes, want %d", got, writes, writes+1)
	}
}
