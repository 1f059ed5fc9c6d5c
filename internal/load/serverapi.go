package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
)

// GetJSON fetches one JSON document from the server; any status but
// 200 is an error carrying the head of the answer.
func (c *Client) GetJSON(ctx context.Context, path string, v any) error {
	status, _, data, err := c.Call(ctx, http.MethodGet, path, nil, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: %d: %s", path, status, truncate(data, 200))
	}
	return json.Unmarshal(data, v)
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(bytes.TrimSpace(b))
}
