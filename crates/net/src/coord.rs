//! Geographic coordinates and great-circle distance.
//!
//! Used throughout the pipeline: MaxMind-style geolocations carry a
//! coordinate plus error radius, anycast catchments are distance-driven,
//! and the cache-probing technique calibrates per-PoP *service radii*
//! (paper §3.1.1, Figure 2) in kilometres.

use std::fmt;

use crate::NetError;

/// Mean Earth radius in kilometres (IUGG).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// A WGS-84 latitude/longitude pair in degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoCoord {
    /// Latitude in degrees, `-90.0..=90.0`.
    pub lat: f64,
    /// Longitude in degrees, `-180.0..=180.0`.
    pub lon: f64,
}

impl GeoCoord {
    /// Builds a coordinate, validating ranges and rejecting NaN.
    pub fn new(lat: f64, lon: f64) -> Result<Self, NetError> {
        if !(-90.0..=90.0).contains(&lat) || !(-180.0..=180.0).contains(&lon) {
            return Err(NetError::InvalidCoordinate { lat, lon });
        }
        Ok(GeoCoord { lat, lon })
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    ///
    /// ```
    /// use clientmap_net::GeoCoord;
    /// let nyc = GeoCoord::new(40.7128, -74.0060).unwrap();
    /// let lon = GeoCoord::new(51.5074, -0.1278).unwrap();
    /// let d = nyc.distance_km(&lon);
    /// assert!((d - 5570.0).abs() < 20.0, "got {d}");
    /// ```
    pub fn distance_km(&self, other: &GeoCoord) -> f64 {
        self.distance_km_cos(self.cos_lat(), other, other.cos_lat())
    }

    /// The cosine of the latitude — the per-point factor of
    /// [`GeoCoord::distance_km`], for callers that keep it.
    pub fn cos_lat(&self) -> f64 {
        self.lat.to_radians().cos()
    }

    /// [`GeoCoord::distance_km`] with both points' [`GeoCoord::cos_lat`]
    /// supplied, for a caller measuring one point against many: the
    /// same expression in the same order, so the same bits.
    pub fn distance_km_cos(&self, cos_lat: f64, other: &GeoCoord, other_cos_lat: f64) -> f64 {
        let dlat = (other.lat - self.lat).to_radians();
        let dlon = (other.lon - self.lon).to_radians();
        let a = (dlat / 2.0).sin().powi(2) + cos_lat * other_cos_lat * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }

    /// The distance along a meridian between the two latitudes, km: a
    /// lower bound on [`GeoCoord::distance_km`] (no great circle between
    /// the points is shorter) at the cost of a subtraction.
    ///
    /// ```
    /// use clientmap_net::GeoCoord;
    /// let nyc = GeoCoord::new(40.7128, -74.0060).unwrap();
    /// let lon = GeoCoord::new(51.5074, -0.1278).unwrap();
    /// assert!(nyc.meridian_gap_km(&lon) <= nyc.distance_km(&lon));
    /// ```
    pub fn meridian_gap_km(&self, other: &GeoCoord) -> f64 {
        (self.lat - other.lat).abs() * (EARTH_RADIUS_KM * std::f64::consts::PI / 180.0)
    }

    /// The destination reached by travelling `distance_km` along the
    /// initial `bearing_deg` (clockwise from north). Used to scatter
    /// synthetic prefixes around population centres.
    pub fn destination(&self, bearing_deg: f64, distance_km: f64) -> GeoCoord {
        let delta = distance_km / EARTH_RADIUS_KM;
        let theta = bearing_deg.to_radians();
        let lat1 = self.lat.to_radians();
        let lon1 = self.lon.to_radians();
        let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos()).asin();
        let lon2 = lon1
            + (theta.sin() * delta.sin() * lat1.cos()).atan2(delta.cos() - lat1.sin() * lat2.sin());
        // Normalise longitude to [-180, 180].
        let mut lon_deg = lon2.to_degrees();
        while lon_deg > 180.0 {
            lon_deg -= 360.0;
        }
        while lon_deg < -180.0 {
            lon_deg += 360.0;
        }
        GeoCoord {
            lat: lat2.to_degrees().clamp(-90.0, 90.0),
            lon: lon_deg,
        }
    }
}

impl fmt::Display for GeoCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.lat, self.lon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The haversine as it was written before its cosines could be
    /// supplied.
    fn oracle_distance_km(a: &GeoCoord, b: &GeoCoord) -> f64 {
        let lat1 = a.lat.to_radians();
        let lat2 = b.lat.to_radians();
        let dlat = (b.lat - a.lat).to_radians();
        let dlon = (b.lon - a.lon).to_radians();
        let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * h.sqrt().asin()
    }

    #[test]
    fn supplied_cosines_give_the_same_bits() {
        let mut state = 0xD15_u64;
        let mut coord = || {
            state = crate::splitmix64(state);
            GeoCoord::new(
                (state >> 11) as f64 / (1u64 << 53) as f64 * 180.0 - 90.0,
                (state & 0xFFFF_FFFF) as f64 / f64::from(u32::MAX) * 360.0 - 180.0,
            )
            .unwrap()
        };
        for _ in 0..10_000 {
            let (a, b) = (coord(), coord());
            let want = oracle_distance_km(&a, &b).to_bits();
            assert_eq!(a.distance_km(&b).to_bits(), want);
            assert_eq!(
                a.distance_km_cos(a.cos_lat(), &b, b.cos_lat()).to_bits(),
                want
            );
        }
    }

    #[test]
    fn zero_distance() {
        let p = GeoCoord::new(10.0, 20.0).unwrap();
        assert!(p.distance_km(&p) < 1e-9);
    }

    #[test]
    fn distance_symmetric() {
        let a = GeoCoord::new(40.7128, -74.0060).unwrap();
        let b = GeoCoord::new(35.6762, 139.6503).unwrap();
        let d1 = a.distance_km(&b);
        let d2 = b.distance_km(&a);
        assert!((d1 - d2).abs() < 1e-9);
        // NYC-Tokyo is about 10,850 km.
        assert!((d1 - 10850.0).abs() < 100.0, "got {d1}");
    }

    #[test]
    fn antipodal_distance_near_half_circumference() {
        let a = GeoCoord::new(0.0, 0.0).unwrap();
        let b = GeoCoord::new(0.0, 180.0).unwrap();
        let d = a.distance_km(&b);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((d - half).abs() < 1.0, "got {d}, want {half}");
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(GeoCoord::new(91.0, 0.0).is_err());
        assert!(GeoCoord::new(-91.0, 0.0).is_err());
        assert!(GeoCoord::new(0.0, 181.0).is_err());
        assert!(GeoCoord::new(0.0, -181.0).is_err());
        assert!(GeoCoord::new(f64::NAN, 0.0).is_err());
    }

    #[test]
    fn destination_roundtrip_distance() {
        let start = GeoCoord::new(48.8566, 2.3522).unwrap(); // Paris
        for bearing in [0.0, 45.0, 135.0, 270.0] {
            let dest = start.destination(bearing, 500.0);
            let d = start.distance_km(&dest);
            assert!((d - 500.0).abs() < 1.0, "bearing {bearing}: {d}");
        }
    }

    #[test]
    fn destination_wraps_longitude() {
        let fiji = GeoCoord::new(-17.7, 178.0).unwrap();
        let east = fiji.destination(90.0, 1000.0);
        assert!((-180.0..=180.0).contains(&east.lon));
    }
}
