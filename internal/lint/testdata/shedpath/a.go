// Golden fixtures for the shedpath analyzer, replayed under the cluster
// package identity (part of the coded-error serving surface). Response /
// Error stand in for the exactsim wire types — detection is structural.
package a

type Error struct{ Code string }

type Request struct{ Source int }

type Response struct {
	Request  Request
	Degraded bool
	Partial  bool
	Err      *Error
}

type WarmResponse struct {
	Warmed int
	Err    *Error
}

// Seeded violation: a shed path answering with a bare success-shaped
// Response — no coded error, no degradation marker.
func shedQuery(req Request) Response {
	return Response{Request: req} // want "overload path shedQuery builds a Response with none of Err, Degraded or Partial set"
}

// Seeded violation: the zero literal is just as unstamped.
func dropOldest() Response {
	return Response{} // want "overload path dropOldest builds a Response with none of Err, Degraded or Partial set"
}

// Seeded violation: closures inside an overload path are part of it.
func codelLoop(req Request) func() Response {
	return func() Response {
		return Response{Request: req} // want "overload path codelLoop builds a Response with none of Err, Degraded or Partial set"
	}
}

// Near-miss: Degraded: false / Err: nil still *decided* the stamp — the
// analyzer checks presence, not value (values need dataflow; the
// reviewer owns those).
func codelStamped() Response {
	return Response{Degraded: false, Err: nil}
}

// Near-miss: a shed answer carrying its coded error.
func shedAnswer(req Request) Response {
	return Response{Request: req, Err: &Error{Code: "unavailable"}}
}

// Near-miss: a brownout answer carrying the degradation marker.
func brownoutAnswer(req Request) Response {
	return Response{Request: req, Degraded: true}
}

// Near-miss: a stamping exit that marks the Response it is handed and
// builds none of its own (the shape of the Service's stampDegraded).
func stampDegraded(resp Response, substituted bool) Response {
	if substituted {
		resp.Degraded = true
	}
	return resp
}

// Near-miss: an anytime best-so-far answer — a deadline-capped ladder
// dropping out with the accuracy it reached — carries the Partial flag.
func dropToBestSoFar(req Request) Response {
	return Response{Request: req, Partial: true}
}

// Seeded violation: WarmResponse is a wire response too.
func degradeWarm() WarmResponse {
	return WarmResponse{Warmed: 1} // want "overload path degradeWarm builds a WarmResponse with none of Err, Degraded or Partial set"
}

// Near-miss: functions outside the overload vocabulary build bare
// Responses freely (the success path does, constantly).
func respond(req Request) Response {
	return Response{Request: req}
}

// Near-miss: positional literals can only compile by filling every
// field, Err included.
func shedPositional(req Request) Response {
	return Response{req, false, false, &Error{Code: "unavailable"}}
}

// Near-miss: the escape hatch, with its mandatory justification.
func shedTemplate(req Request) Response {
	//lint:shed-ok caller stamps Err before the response escapes
	r := Response{Request: req}
	r.Err = &Error{Code: "unavailable"}
	return r
}

// Seeded violation: a bare directive is no justification.
func dropTemplate(req Request) Response {
	//lint:shed-ok // want "directive needs a justification string"
	return Response{Request: req} // want "overload path dropTemplate builds a Response with none of Err, Degraded or Partial set"
}

// Near-miss: non-response types are out of scope even in overload paths.
func shedRequest(req Request) Request {
	return Request{Source: req.Source}
}
