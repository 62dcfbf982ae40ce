/*
 * A statistical CPU profiler for hosts with no PMU and no `perf`: preload
 * it and it samples the process on `ITIMER_PROF` (the CPU time it uses,
 * across all its threads), walking each sample's frame-pointer chain. When
 * the process exits it writes every sample's stack, and the executable
 * mappings needed to resolve them, to `$SAMPLE_OUT` (default
 * `sample.out`); `scripts/sample.py` turns that into self, inclusive and
 * per-instruction hot spots. On a host whose kernel refuses
 * `perf_event_open` it is the only profiler there is.
 *
 *   gcc -O2 -shared -fPIC -o target/sample.so scripts/sample.c
 *   RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR=target/fp \
 *       cargo build --release --offline --manifest-path benchmark/Cargo.toml
 *   SAMPLE_OUT=target/sample.out LD_PRELOAD=$PWD/target/sample.so \
 *       target/fp/release/ipmedia-benchmark --workload sim_storm --seed 6501 \
 *       --seconds 18 --trace 0
 *   python3 scripts/sample.py target/sample.out
 *
 * `SAMPLE_HZ` sets the rate (default 1000; the kernel's tick caps it). A
 * sample's first address is the interrupted instruction — a stalled load
 * is usually charged to it or to the one after — and the rest are return
 * addresses. Code built without frame pointers (libc, a leaf caught in
 * its prologue) loses or skips its caller; the chain is read with
 * `process_vm_readv`, so a bad frame pointer ends a stack rather than the
 * process. Samples past the buffer (`MAX_WORDS`) are counted as dropped.
 * x86_64 Linux only.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 64
/* Each sample takes its depth and its addresses: 32 MB of address space,
 * touched only as far as it fills. */
#define MAX_WORDS (1 << 22)

static uintptr_t words[MAX_WORDS];
static atomic_size_t used;
static atomic_long dropped;
static pid_t self;

/* Reads `len` bytes at `addr`, or fails instead of faulting. */
static int peek(uintptr_t addr, void *out, size_t len) {
    struct iovec local = {out, len}, remote = {(void *)addr, len};
    return process_vm_readv(self, &local, 1, &remote, 1, 0) == (ssize_t)len;
}

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    int saved = errno;
    const mcontext_t *mc = &((ucontext_t *)ctx)->uc_mcontext;
    uintptr_t stack[MAX_DEPTH];
    size_t depth = 0;
    stack[depth++] = (uintptr_t)mc->gregs[REG_RIP];
    uintptr_t fp = (uintptr_t)mc->gregs[REG_RBP];
    uintptr_t sp = (uintptr_t)mc->gregs[REG_RSP];
    /* A frame record is the caller's frame pointer, then the return
     * address; the caller's record sits higher up the stack. */
    while (depth < MAX_DEPTH && fp >= sp && fp % 8 == 0) {
        uintptr_t record[2];
        if (!peek(fp, record, sizeof record) || record[1] == 0)
            break;
        stack[depth++] = record[1];
        if (record[0] <= fp)
            break;
        fp = record[0];
    }
    size_t at = atomic_fetch_add(&used, depth + 1);
    if (at + depth + 1 > MAX_WORDS) {
        atomic_fetch_add(&dropped, 1);
    } else {
        words[at] = depth;
        memcpy(&words[at + 1], stack, depth * sizeof stack[0]);
    }
    errno = saved;
}

__attribute__((constructor)) static void start(void) {
    self = getpid();
    const char *hz = getenv("SAMPLE_HZ");
    long rate = hz ? atol(hz) : 1000;
    if (rate <= 0)
        rate = 1000;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    long us = 1000000 / rate;
    struct itimerval every = {{us / 1000000, us % 1000000}, {us / 1000000, us % 1000000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);
    const char *path = getenv("SAMPLE_OUT");
    FILE *out = fopen(path ? path : "sample.out", "w");
    if (!out)
        return;
    /* Executable mappings: start, end, file offset, file. */
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    while (maps && fgets(line, sizeof line, maps)) {
        unsigned long lo, hi, off;
        char perms[8], file[4096] = "";
        if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %4095[^\n]", &lo, &hi, perms, &off, file) >= 4 &&
            perms[2] == 'x' && file[0] == '/')
            fprintf(out, "map %lx %lx %lx %s\n", lo, hi, off, file);
    }
    if (maps)
        fclose(maps);
    size_t end = atomic_load(&used);
    if (end > MAX_WORDS)
        end = MAX_WORDS;
    for (size_t at = 0; at < end && words[at] != 0 && at + words[at] < end; at += words[at] + 1) {
        fputs("stack", out);
        for (size_t i = 1; i <= words[at]; i++)
            fprintf(out, " %lx", (unsigned long)words[at + i]);
        fputc('\n', out);
    }
    fprintf(out, "dropped %ld\n", atomic_load(&dropped));
    fclose(out);
}
