package main

import "testing"

// TestBaseURL: an address without a scheme is served over http; one
// with a scheme is used as given, never prefixed a second time.
func TestBaseURL(t *testing.T) {
	for _, tc := range []struct{ addr, want string }{
		{"127.0.0.1:9090", "http://127.0.0.1:9090"},
		{"localhost:9321", "http://localhost:9321"},
		{"[::1]:9090", "http://[::1]:9090"},
		{"http://h:9090", "http://h:9090"},
		{"https://h:9090", "https://h:9090"},
		{"HTTPS://h:443", "HTTPS://h:443"},
	} {
		if got := baseURL(tc.addr); got != tc.want {
			t.Errorf("baseURL(%q) = %q, want %q", tc.addr, got, tc.want)
		}
	}
}
