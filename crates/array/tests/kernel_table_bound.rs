//! The process-wide stray-field kernel table stays bounded under a
//! service's traffic: a long-lived `mramsim serve` sweeps fresh pitches
//! all day, two new design points per `fig4b` request.
//!
//! This is its own test binary, so the kernels it pushes through the
//! table cannot evict the ones other array tests hold.

use mramsim_array::{kernel_cache_stats, StrayFieldKernel};
use mramsim_mtj::presets;
use mramsim_units::Nanometer;
use std::sync::Arc;

#[test]
fn distinct_design_points_past_the_capacity_are_evicted() {
    let device = presets::imec_like(Nanometer::new(35.0)).unwrap();
    let requests = 1100u64;
    let pitch = |i: u64| Nanometer::new(70.0 + 0.01 * i as f64);
    let mut newest = None;
    for i in 0..requests {
        newest = Some(StrayFieldKernel::shared(&device, pitch(i)).unwrap());
        let stats = kernel_cache_stats();
        assert!(stats.entries <= stats.capacity, "after {i}: {stats:?}");
    }
    let stats = kernel_cache_stats();
    assert!(stats.capacity < requests as usize, "{stats:?}");
    assert!(
        stats.evictions >= requests - stats.capacity as u64,
        "{stats:?}"
    );
    assert_eq!(stats.misses, requests);
    // The newest design point survived, and is served without a build.
    let again = StrayFieldKernel::shared(&device, pitch(requests - 1)).unwrap();
    assert!(Arc::ptr_eq(&again, &newest.unwrap()));
    let after = kernel_cache_stats();
    assert_eq!((after.hits, after.misses), (stats.hits + 1, requests));
}
