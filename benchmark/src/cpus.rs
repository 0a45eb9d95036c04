//! Which processors the timed runs use.
//!
//! On a shared host, each virtual processor is slowed by its own neighbours,
//! in phases of seconds to minutes, and the processors of one guest are
//! slowed independently. Each run is pinned to one processor, so the
//! reference tasks that gauge its speed (`crate::reference`) run where it
//! ran. The runs take the allowed processors in turn, so a phase on one of
//! them does not colour a whole invocation.

/// The processors this process may run on, from the `Cpus_allowed_list`
/// line of `/proc/self/status`; empty where that is not available.
pub fn allowed_cpus() -> Vec<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status
                .lines()
                .find(|line| line.starts_with("Cpus_allowed_list:"))?;
            parse_cpu_list(line.split(':').nth(1)?)
        })
        .unwrap_or_default()
}

/// Parses a kernel CPU list such as `0-3,8,10-11`; `None` when malformed.
pub fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (low, high): (usize, usize) = match part.split_once('-') {
            Some((low, high)) => (low.parse().ok()?, high.parse().ok()?),
            None => {
                let cpu = part.parse().ok()?;
                (cpu, cpu)
            }
        };
        if low > high || high >= MAX_CPUS {
            return None;
        }
        cpus.extend(low..=high);
    }
    Some(cpus)
}

/// Processors a pinning mask can name.
const MAX_CPUS: usize = 1024;

/// Restricts the calling thread to the given processors. Returns whether the
/// kernel accepted the mask; `false` on platforms without `sched_setaffinity`.
pub fn pin(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MAX_CPUS / 64];
    for &cpu in cpus {
        if cpu >= MAX_CPUS {
            return false;
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    set_affinity(&mask)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set_affinity(mask: &[u64; MAX_CPUS / 64]) -> bool {
    const SYS_SCHED_SETAFFINITY: isize = 203;
    let ret: isize;
    // SAFETY: `sched_setaffinity(0, len, mask)` only reads `len` bytes from
    // `mask`, which lives for the whole call; the syscall clobbers rcx and
    // r11 and nothing else.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set_affinity(_mask: &[u64; MAX_CPUS / 64]) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse_like_the_kernel_prints_them() {
        assert_eq!(parse_cpu_list("0-1\n"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("0,2-4,7"), Some(vec![0, 2, 3, 4, 7]));
        assert_eq!(parse_cpu_list("5"), Some(vec![5]));
        assert_eq!(parse_cpu_list("3-1"), None);
        assert_eq!(parse_cpu_list("x"), None);
        assert_eq!(parse_cpu_list("0-4096"), None);
    }

    #[test]
    fn pinning_to_every_allowed_cpu_is_accepted() {
        let cpus = allowed_cpus();
        if cfg!(all(target_os = "linux", target_arch = "x86_64")) && !cpus.is_empty() {
            assert!(pin(&cpus));
            assert!(pin(&cpus[..1]));
            assert!(pin(&cpus));
        }
    }
}
