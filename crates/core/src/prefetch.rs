//! Software prefetch: ask the CPU to start loading memory a later step
//! will read, so that step does not wait on it (DESIGN §3.1, "The storm
//! reads ahead").

/// Start loading every cache line that overlaps `len` bytes at `ptr`
/// into all cache levels. A hint only: it reads nothing the program sees
/// and cannot fault, so any address will do, dangling or not. On targets
/// other than `x86_64` it does nothing.
#[allow(unsafe_code)]
#[inline]
pub fn prefetch(ptr: *const u8, len: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        if len == 0 {
            return;
        }
        let skew = ptr.addr() % LINE;
        let first = ptr.wrapping_sub(skew);
        for offset in (0..skew + len).step_by(LINE) {
            // SAFETY: a prefetch never faults, whatever the address, and
            // reads nothing the program sees; `sse` is part of every
            // x86_64 target.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(offset).cast()) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (ptr, len);
}
