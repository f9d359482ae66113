// FSA042 fixture: sockets opened outside fs-net's TCP transport.
use std::net::{SocketAddr, TcpListener, TcpStream};

pub fn dial(addr: SocketAddr) -> std::io::Result<TcpStream> {
    TcpStream::connect(addr)
}

pub fn serve(listener: &TcpListener) -> std::io::Result<TcpStream> {
    let (stream, _) = listener.accept()?;
    Ok(stream)
}

pub fn serve_ufcs(listener: &TcpListener) -> std::io::Result<(TcpStream, SocketAddr)> {
    TcpListener::accept(listener)
}

// fs-net's own hub accept takes a client count: not a raw socket
pub fn hub(pending: fs_net::tcp::PendingHub) -> Result<fs_net::tcp::TcpHub, fs_net::tcp::TcpError> {
    pending.accept(2)
}

#[cfg(test)]
mod tests {
    fn loopback(addr: std::net::SocketAddr) {
        let _ = std::net::TcpStream::connect(addr);
    }
}
