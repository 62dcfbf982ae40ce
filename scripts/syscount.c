/*
 * Count a process's socket, epoll and futex syscalls by interposing the C
 * library's wrappers: preload it and it prints one `SYSCOUNT {json}` line
 * on stderr when the process exits. It counts what goes through libc,
 * which is every syscall the Rust standard library and the tokio stand-in
 * make; calls made with inline `syscall` instructions are not seen.
 *
 *   gcc -O2 -shared -fPIC -o target/syscount.so scripts/syscount.c -ldl
 *   LD_PRELOAD=$PWD/target/syscount.so benchmark/target/release/ipmedia-benchmark \
 *       --workload rt_midcall --seed 4242 --seconds 6 --trace 0
 *
 * Divide each count by the result line's `attempted` for a per-op figure;
 * `connect` (every attempt) and `accept` (the connections taken, by
 * `accept` or `accept4`) are per run.
 * `recv_eagain` is the subset of `recv` that failed with EAGAIN;
 * `eventfd_write` and `eventfd_read` count the calls on the one eventfd
 * the process made (the stand-in's reactor interrupt); `futex_worker` is the subset of `futex`
 * made on the stand-in's worker threads (named `tokio-shim-worker-N`).
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <pthread.h>
#include <stdarg.h>
#include <stdatomic.h>
#include <stdio.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

static _Atomic long n_send, n_recv, n_recv_eagain, n_epoll_ctl, n_epoll_wait, n_futex,
    n_futex_worker, n_eventfd_write, n_eventfd_read, n_connect, n_accept;
static _Atomic int the_eventfd = -1;

/* The next definition of `name` after this library's: libc's. */
#define REAL(name)                                                                     \
    static __typeof__(name) *real;                                                     \
    if (!real)                                                                         \
    real = (__typeof__(name) *)dlsym(RTLD_NEXT, #name)

static int on_worker(void) {
    static __thread int known = -1;
    if (known < 0) {
        char name[16] = "";
        pthread_getname_np(pthread_self(), name, sizeof name);
        known = strncmp(name, "tokio-shim-work", 15) == 0;
    }
    return known;
}

ssize_t send(int fd, const void *buf, size_t len, int flags) {
    REAL(send);
    n_send++;
    return real(fd, buf, len, flags);
}

ssize_t recv(int fd, void *buf, size_t len, int flags) {
    REAL(recv);
    n_recv++;
    ssize_t r = real(fd, buf, len, flags);
    if (r < 0 && errno == EAGAIN)
        n_recv_eagain++;
    return r;
}

int connect(int fd, const struct sockaddr *addr, socklen_t len) {
    REAL(connect);
    n_connect++;
    return real(fd, addr, len);
}

int accept(int fd, struct sockaddr *addr, socklen_t *len) {
    REAL(accept);
    int r = real(fd, addr, len);
    if (r >= 0)
        n_accept++;
    return r;
}

int accept4(int fd, struct sockaddr *addr, socklen_t *len, int flags) {
    REAL(accept4);
    int r = real(fd, addr, len, flags);
    if (r >= 0)
        n_accept++;
    return r;
}

int epoll_ctl(int epfd, int op, int fd, struct epoll_event *ev) {
    REAL(epoll_ctl);
    n_epoll_ctl++;
    return real(epfd, op, fd, ev);
}

int epoll_wait(int epfd, struct epoll_event *evs, int max, int timeout) {
    REAL(epoll_wait);
    n_epoll_wait++;
    return real(epfd, evs, max, timeout);
}

int eventfd(unsigned int initval, int flags) {
    REAL(eventfd);
    int fd = real(initval, flags);
    the_eventfd = fd;
    return fd;
}

ssize_t write(int fd, const void *buf, size_t len) {
    REAL(write);
    if (fd == the_eventfd)
        n_eventfd_write++;
    return real(fd, buf, len);
}

ssize_t read(int fd, void *buf, size_t len) {
    REAL(read);
    if (fd == the_eventfd)
        n_eventfd_read++;
    return real(fd, buf, len);
}

/* The standard library makes its futex calls through `syscall`. */
long syscall(long nr, ...) {
    REAL(syscall);
    va_list ap;
    va_start(ap, nr);
    long a = va_arg(ap, long), b = va_arg(ap, long), c = va_arg(ap, long);
    long d = va_arg(ap, long), e = va_arg(ap, long), f = va_arg(ap, long);
    va_end(ap);
    if (nr == SYS_futex) {
        n_futex++;
        if (on_worker())
            n_futex_worker++;
    }
    return real(nr, a, b, c, d, e, f);
}

__attribute__((destructor)) static void report(void) {
    fprintf(stderr,
            "SYSCOUNT {\"send\":%ld,\"recv\":%ld,\"recv_eagain\":%ld,\"epoll_ctl\":%ld,"
            "\"epoll_wait\":%ld,\"futex\":%ld,\"futex_worker\":%ld,\"eventfd_write\":%ld,"
            "\"eventfd_read\":%ld,\"connect\":%ld,\"accept\":%ld}\n",
            n_send, n_recv, n_recv_eagain, n_epoll_ctl, n_epoll_wait, n_futex, n_futex_worker,
            n_eventfd_write, n_eventfd_read, n_connect, n_accept);
}
