// Package geo provides the planar geometry substrate for the location
// service: points, rectangles, simple polygons and circles, together with
// the exact area computations required by the paper's query semantics
// (fractional overlap of a circular location area with a query polygon,
// Section 3.2) and a WGS84 helper for converting geographic coordinates to
// the local metric plane the service operates in.
//
// All coordinates are in meters within a locally projected plane. The paper
// assumes WGS84 geographic coordinates at the API boundary; Project and
// Unproject convert between the two using an equirectangular projection
// around a reference origin, which is accurate to well below typical sensor
// accuracy (10 cm – 10 m) for service areas up to a few hundred kilometers.
package geo

import (
	"fmt"
	"math"
)

// Point is a position in the local plane, in meters.
type Point struct {
	X float64
	Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Dot returns the dot product of p and q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Norm2 returns the squared Euclidean length of p as a vector.
func (p Point) Norm2() float64 { return p.X*p.X + p.Y*p.Y }

// Dist returns the Euclidean distance between p and q. This is the paper's
// DISTANCE function over the local plane.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 { return p.Sub(q).Norm2() }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Lerp linearly interpolates from p to q; t=0 yields p, t=1 yields q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// earthRadiusM is the WGS84 mean earth radius in meters.
const earthRadiusM = 6371008.8

// LatLon is a geographic coordinate (degrees) in the WGS84 datum, the
// coordinate system the paper assumes for sighting records.
type LatLon struct {
	Lat float64
	Lon float64
}

// Projection converts between WGS84 geographic coordinates and the local
// metric plane using an equirectangular projection centered at Origin.
type Projection struct {
	Origin LatLon
}

// Project maps a geographic coordinate to the local plane in meters.
func (pr Projection) Project(ll LatLon) Point {
	dLat := (ll.Lat - pr.Origin.Lat) * math.Pi / 180
	dLon := (ll.Lon - pr.Origin.Lon) * math.Pi / 180
	cos := math.Cos(pr.Origin.Lat * math.Pi / 180)
	return Point{X: earthRadiusM * dLon * cos, Y: earthRadiusM * dLat}
}

// Unproject maps a local-plane point back to a geographic coordinate.
func (pr Projection) Unproject(p Point) LatLon {
	cos := math.Cos(pr.Origin.Lat * math.Pi / 180)
	return LatLon{
		Lat: pr.Origin.Lat + (p.Y/earthRadiusM)*180/math.Pi,
		Lon: pr.Origin.Lon + (p.X/(earthRadiusM*cos))*180/math.Pi,
	}
}
