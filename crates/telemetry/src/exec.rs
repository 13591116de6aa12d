//! The workspace's one parallel executor.
//!
//! [`ordered_map`] maps a slice on a scoped worker pool and returns the
//! results in item order, so output never depends on scheduling. Every
//! parallel loop in the simulator stack (suite tasks, plan legs, fuzz
//! candidates) runs through it.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Maps `f` over `items` on up to `workers` threads and returns the
/// results in item order.
///
/// `on_done(item, &result)` runs once per successful item, on the thread
/// that computed it, before the result is published; callers hang
/// durability on it (a write-ahead journal append). The first error,
/// from `f` or from `on_done`, stops workers claiming new items and is
/// returned; items already in flight finish first. (If several items
/// fail at once, the error of the lowest-numbered worker wins.)
///
/// With `workers <= 1` (or at most one item) everything runs inline on
/// the caller's thread, in order: no thread, lock or atomic.
///
/// # Errors
///
/// The first error `f` or `on_done` returned.
///
/// # Panics
///
/// Re-raises a panic from `f` or `on_done` after the pool has joined.
pub fn ordered_map<T, R, E, F, D>(
    workers: usize,
    items: &[T],
    f: F,
    on_done: D,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
    D: Fn(&T, &R) -> Result<(), E> + Sync,
{
    let run = |item: &T| -> Result<R, E> {
        let r = f(item)?;
        on_done(item, &r)?;
        Ok(r)
    };
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(run).collect();
    }

    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let mut done = std::thread::scope(|s| {
        let worker = || -> Result<Vec<(usize, R)>, E> {
            let mut mine = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = run(item).inspect_err(|_| stop.store(true, Ordering::SeqCst))?;
                mine.push((i, r));
            }
            Ok(mine)
        };
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
        let mut done = Vec::new();
        for h in handles {
            done.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))?);
        }
        Ok(done)
    })?;
    done.sort_unstable_by_key(|&(i, _)| i);
    Ok(done.into_iter().map(|(_, r)| r).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::Mutex;

    fn ok<R>(_: &u64, _: &R) -> Result<(), Infallible> {
        Ok(())
    }

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<u64> = (0..37).collect();
        for workers in 1..=4 {
            let out = ordered_map(
                workers,
                &items,
                |&x| {
                    // Uneven work, so completion order differs from
                    // item order on a real pool.
                    std::thread::sleep(std::time::Duration::from_micros((37 - x) * 20));
                    Ok(x * x)
                },
                ok,
            )
            .unwrap();
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn one_worker_runs_inline() {
        let caller = std::thread::current().id();
        let items = [1u64, 2, 3];
        let out = ordered_map(
            1,
            &items,
            |_| Ok::<_, Infallible>(std::thread::current().id()),
            |_, _| Ok(()),
        )
        .unwrap();
        assert!(out.iter().all(|id| *id == caller));
    }

    #[test]
    fn on_done_sees_each_result_once_before_it_is_returned() {
        let items: Vec<u64> = (0..20).collect();
        for workers in 1..=4 {
            let seen = Mutex::new(Vec::new());
            let out = ordered_map(
                workers,
                &items,
                |&x| Ok::<_, Infallible>(x + 100),
                |&x, &r| {
                    seen.lock().unwrap().push((x, r));
                    Ok(())
                },
            )
            .unwrap();
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(
                seen,
                items.iter().map(|&x| (x, x + 100)).collect::<Vec<_>>()
            );
            assert_eq!(out.len(), items.len());
        }
    }

    #[test]
    fn an_on_done_error_stops_new_claims_and_is_returned() {
        let items: Vec<u64> = (0..200).collect();
        for workers in 1..=4 {
            let ran = AtomicUsize::new(0);
            let out = ordered_map(
                workers,
                &items,
                |&x| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if x > 5 {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                    Ok(x)
                },
                |&x, _| {
                    if x == 5 {
                        Err(format!("disk full at {x}"))
                    } else {
                        Ok(())
                    }
                },
            );
            assert_eq!(out, Err("disk full at 5".to_string()));
            let ran = ran.load(Ordering::SeqCst);
            if workers == 1 {
                assert_eq!(ran, 6, "inline: nothing after the failing item runs");
            } else {
                assert!(ran < items.len(), "{workers} workers kept claiming: {ran}");
            }
        }
    }

    #[test]
    fn an_f_error_is_returned() {
        let items = [1u64, 2, 3];
        for workers in 1..=3 {
            let out = ordered_map(
                workers,
                &items,
                |&x| if x == 2 { Err("bad item") } else { Ok(x) },
                |_, _| Ok(()),
            );
            assert_eq!(out, Err("bad item"));
        }
    }
}
