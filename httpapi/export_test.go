package httpapi

// The answer codec's encoder and relay scan, for the external tests.
var (
	AppendResponse = appendResponse
	ScanResponse   = scanResponse
)
