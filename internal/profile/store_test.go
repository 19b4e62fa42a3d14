package profile

import "testing"

func TestStoreGetSet(t *testing.T) {
	s := NewStore(3)
	if s.NumUsers() != 3 {
		t.Fatalf("NumUsers = %d, want 3", s.NumUsers())
	}
	v := mustVector(t, Entry{1, 2})
	if err := s.Set(1, v); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if !s.Get(1).Equal(v) {
		t.Error("Get(1) should return the stored vector")
	}
	if s.Get(0).Len() != 0 {
		t.Error("unset profile should be empty")
	}
	if s.Get(99).Len() != 0 {
		t.Error("out-of-range Get should be empty")
	}
	if err := s.Set(99, v); err == nil {
		t.Error("out-of-range Set should fail")
	}
}

func TestStoreCloneIndependence(t *testing.T) {
	s := NewStore(2)
	s.Set(0, mustVector(t, Entry{1, 1}))
	c := s.Clone()
	c.Set(0, mustVector(t, Entry{9, 9}))
	if w, _ := s.Get(0).Weight(1); w != 1 {
		t.Error("mutating the clone must not affect the original")
	}
}

func TestStoreTotalBytes(t *testing.T) {
	s := NewStore(2)
	s.Set(0, mustVector(t, Entry{1, 1}, Entry{2, 2}))
	s.Set(1, mustVector(t, Entry{3, 3}))
	// vector byte size = 4 + 8*len
	want := (4 + 16) + (4 + 8)
	if got := s.TotalBytes(); got != want {
		t.Errorf("TotalBytes = %d, want %d", got, want)
	}
}

// TestApplyUpdates is the table test of phase 5's profile rewrite:
// updates apply in order, a later update of the same entry wins, and a
// failure reports how many applied and keeps them.
func TestApplyUpdates(t *testing.T) {
	cases := []struct {
		name    string
		updates []Update
		wantN   int
		wantErr bool
		check   func(t *testing.T, s *Store)
	}{
		{
			name: "in-order set, remove and replace",
			updates: []Update{
				{User: 0, Kind: SetItem, Item: 2, Weight: 5},
				{User: 0, Kind: RemoveItem, Item: 1},
				{User: 1, Kind: ReplaceProfile, Vector: FromItems([]uint32{7})},
			},
			wantN: 3,
			check: func(t *testing.T, s *Store) {
				got0 := s.Get(0)
				if got0.Len() != 1 {
					t.Fatalf("user 0 profile = %v", got0.Entries())
				}
				if w, ok := got0.Weight(2); !ok || w != 5 {
					t.Errorf("user 0 item 2 = %v,%v, want 5,true", w, ok)
				}
				if _, ok := s.Get(1).Weight(7); !ok {
					t.Error("user 1 should have replaced profile with item 7")
				}
			},
		},
		{
			name: "last update wins",
			updates: []Update{
				{User: 0, Kind: SetItem, Item: 3, Weight: 1},
				{User: 0, Kind: SetItem, Item: 3, Weight: 2},
			},
			wantN: 2,
			check: func(t *testing.T, s *Store) {
				if w, _ := s.Get(0).Weight(3); w != 2 {
					t.Errorf("item 3 weight = %v, want 2 (last update wins)", w)
				}
			},
		},
		{
			name: "out-of-range user keeps earlier updates",
			updates: []Update{
				{User: 0, Kind: SetItem, Item: 4, Weight: 1},
				{User: 9, Kind: SetItem, Item: 4, Weight: 1},
				{User: 0, Kind: SetItem, Item: 5, Weight: 2},
			},
			wantN:   1,
			wantErr: true,
			check: func(t *testing.T, s *Store) {
				if _, ok := s.Get(0).Weight(4); !ok {
					t.Error("update before the failure should be applied")
				}
				if _, ok := s.Get(0).Weight(5); ok {
					t.Error("update after the failure should not be applied")
				}
			},
		},
		{
			name:    "unknown kind",
			updates: []Update{{User: 0, Kind: UpdateKind(42)}},
			wantN:   0,
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore(2)
			s.Set(0, mustVector(t, Entry{1, 1}))
			n, err := ApplyUpdates(s, tc.updates)
			if (err != nil) != tc.wantErr {
				t.Fatalf("ApplyUpdates error = %v, want error: %v", err, tc.wantErr)
			}
			if n != tc.wantN {
				t.Fatalf("applied = %d, want %d", n, tc.wantN)
			}
			if tc.check != nil {
				tc.check(t, s)
			}
		})
	}
}
