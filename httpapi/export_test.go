package httpapi

// The answer codec's encoder and relay scan, for the external tests.
var (
	AppendResponse = appendResponse
	ScanResponse   = scanResponse
)

// AppendRecord is the codec's encoder of one /v1/query/stream record.
func AppendRecord(b []byte, rec *StreamRecord) ([]byte, error) {
	return appendAnswer(b, &rec.Response, &rec.Final)
}
